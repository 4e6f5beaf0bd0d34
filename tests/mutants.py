"""A catalogue of mutants: each guard test shown to catch the defect it guards.

Each entry names one defect as an exact edit of one file, and the test node
ids that must fail once the edit is made.  Run from anywhere, stdlib only:

    python tests/mutants.py

First the named tests run once on an unedited copy, where they must pass.
Then, per entry, ``src/``, ``tests/``, ``bench/`` (whose names the public-API
guards read) and ``pyproject.toml`` are copied to a temporary directory, the
old text, which must occur exactly once, is replaced by the new one, and
pytest runs the entry's nodes alone.  A mutant is killed when pytest
reports a failing test (exit status 1).  The script prints one line per
entry and a result line, and exits 1 if any mutant survives or cannot be
run.  ``test_mutants.py`` holds the old texts to the tree in the tier-1
suite, so the catalogue cannot go stale silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str
    new: str
    nodes: tuple[str, ...]


ORACLE = "src/ramsys/oracle.py"
COUNTING = "src/ramsys/counting.py"
CLI = "src/ramsys/cli.py"
PERM = "src/ramsys/perm.py"
TEST_ORACLE = "tests/test_oracle.py"
TEST_COUNTING = "tests/test_counting.py"
TEST_CLI = "tests/test_cli.py"
CHECKED_ONCE = f"{TEST_CLI}::TestCheckedOnce::test_entry_point_runs_no_post_init"

MUTANTS = (
    Mutant(
        "class check on a newly reached base point dropped",
        ORACLE,
        "                if sorted(map(len, _cycles(w))) != parts:\n",
        "                if False:\n",
        (f"{TEST_ORACLE}::TestClassAction::test_base_point_moved_out_of_the_class_is_caught",),
    ),
    Mutant(
        "u0 check dropped",
        ORACLE,
        "    if sorted(map(len, _cycles(found[0]))) != parts:\n",
        "    if False:\n",
        (f"{TEST_ORACLE}::TestClassAction::test_u0_out_of_the_class_is_caught",),
    ),
    Mutant(
        "u0 found by scanning S_n",
        ORACLE,
        "    found = [_u0(lam)]\n",
        "    found = [min(g[1:] for g in _group(lam.n) if sorted(map(len, _cycles(g[1:]))) == parts)]\n",
        (f"{TEST_ORACLE}::TestClassAction::test_class_is_found_without_scanning_the_group",),
    ),
    Mutant(
        "domain check on non-tree edges dropped",
        ORACLE,
        "            elif domain != domains[target]:\n",
        "            elif False:\n",
        (f"{TEST_ORACLE}::TestClassAction::test_centralizer_carried_off_its_domain_is_caught",),
    ),
    Mutant(
        "characters taken to land on themselves, not looked up in the target's basis",
        ORACLE,
        "            row = tuple(map(lookups[target].get, images))\n",
        "            row = tuple(range(len(images)))\n",
        (f"{TEST_ORACLE}::TestClassAction::test_character_moved_off_the_basis_is_caught",),
    ),
    Mutant(
        "index_moves without the slot swaps",
        ORACLE,
        "    for i in range(r - 1):\n",
        "    for i in range(0):\n",
        (f"{TEST_ORACLE}::TestClassAction::test_index_moves_agree_with_act[2-3]",),
    ),
    Mutant(
        "_characters applies a new generator to the new elements only",
        ORACLE,
        "            for i in range(new if j < old else 0, new + 1):\n",
        "            for i in range(new + 1 if j < old else 0, new + 1):\n",
        (f"{TEST_ORACLE}::TestDualCharacters::test_sign_character_of_s3",),
    ),
    Mutant(
        "the oracle imports gamma from the closed form",
        ORACLE,
        "from .perm import CycleType, InputError, UnsupportedGroupError\n",
        "from .centralizer import gamma\nfrom .perm import CycleType, InputError, UnsupportedGroupError\n",
        (f"{TEST_ORACLE}::TestIndependenceFromTheClosedForm",),
    ),
    Mutant(
        "count's class walk carries z_λ and the factor text",
        CLI,
        "                if centralizers:\n",
        "                if True:\n",
        (f"{TEST_CLI}::TestCount::test_all_r_takes_no_centralizer_order",),
    ),
    Mutant(
        "a restarted class draws its first composition from a new cursor",
        COUNTING,
        "            cursors[k] = None\n            composition, texts[k] = firsts[shapes[k]]\n",
        "            cursors[k] = _cursor(shapes[k], replays)\n"
        "            composition, texts[k] = next(cursors[k])\n",
        (f"{TEST_COUNTING}::TestEnumerateTypes::test_prefix_work_is_bounded",),
    ),
    Mutant(
        "γ takes C_2 only from three equal cycles on",
        "src/ramsys/centralizer.py",
        "        if m > 1:\n",
        "        if m > 2:\n",
        ("tests/test_centralizer.py::TestAbelianization::test_examples",),
    ),
    Mutant(
        "the product tree's pairwise round drops every second product",
        COUNTING,
        "        products = [prod(products[i : i + 2]) for i in range(0, len(products), 2)]\n",
        "        products = [prod(products[i : i + 1]) for i in range(0, len(products), 2)]\n",
        (f"{TEST_COUNTING}::TestCountRsc::test_balanced_product_matches_stirling_at_mid_size",),
    ),
    Mutant(
        "the digit bound takes min(r, γ) for min(r, γ - 1)",
        COUNTING,
        "(r if r < g else g - 1) * log10",
        "(r if r < g else g) * log10",
        (f"{TEST_COUNTING}::TestPrintableGammas::test_bound_is_exact_at_gamma_2",),
    ),
    Mutant(
        "decimal_string drops the leading zeros of a low piece",
        COUNTING,
        "low_text.zfill(_CHUNK_DIGITS << k)",
        "low_text",
        (f"{TEST_COUNTING}::TestDecimalString::test_round_trips_past_the_limit",),
    ),
    Mutant(
        "the odometer leaves the class after the advanced one unrestarted",
        COUNTING,
        "        start = k + 1\n",
        "        start = k + 2\n",
        (f"{TEST_COUNTING}::TestEnumerateTypes::test_no_duplicates",),
    ),
    Mutant(
        "Algorithm P drops the remainder cycle",
        PERM,
        "        if remainder:\n",
        "        if False:\n",
        ("tests/test_perm.py::TestEnumerateCycleTypes::test_matches_recursive_reference",),
    ),
    Mutant(
        "main lets a closed pipe's BrokenPipeError through",
        CLI,
        "    except BrokenPipeError:\n",
        "    except ():\n",
        (f"{TEST_CLI}::TestFreshProcess::test_closed_pipe_ends_the_run_quietly",),
    ),
    Mutant(
        "class_size re-exported from the package",
        "src/ramsys/__init__.py",
        "    enumerate_cycle_types,\n)\n\n__all__ = [\n",
        "    class_size,\n    enumerate_cycle_types,\n)\n\n__all__ = [\n    \"class_size\",\n",
        ("tests/test_public_api.py::test_every_exported_name_is_read_by_the_library",),
    ),
    Mutant(
        "an unused function appended to the oracle",
        ORACLE,
        "    return prod(orbit_count_class(lam, mult) for lam, mult in ram.entries)\n",
        "    return prod(orbit_count_class(lam, mult) for lam, mult in ram.entries)\n\n\n"
        "def orbit_sizes(lam: CycleType, r: int) -> list[int]:\n"
        "    return [len(orbit) for orbit in orbit_partition_class(lam, r)]\n",
        ("tests/test_public_api.py::test_every_module_level_name_is_read_by_the_library_or_the_benchmark",),
    ),
    Mutant(
        "u0's text laid out with its runs longest first",
        PERM,
        "    for length, mult in reversed(lam.cycles):\n",
        "    for length, mult in lam.cycles:\n",
        ("tests/test_perm.py::TestCanonicalCycleString::test_matches_the_built_representative",),
    ),
    Mutant(
        "count_rsc_stirling reads the Stirling row of r + 1",
        COUNTING,
        "_stirling_row(mult)",
        "_stirling_row(mult + 1)",
        (f"{TEST_COUNTING}::TestCountRscStirling",),
    ),
    Mutant(
        "a parsed class is checked again by CycleType's __post_init__",
        PERM,
        "    return _trusted_cycle_type(n, tuple(sorted(mults.items(), reverse=True)))\n",
        "    return CycleType(n, tuple(sorted(mults.items(), reverse=True)))\n",
        (f"{CHECKED_ONCE}[CycleType.parse-tokens]", f"{CHECKED_ONCE}[CycleType.from_parts]"),
    ),
    Mutant(
        "a parsed spec is checked again by Ramification's __post_init__",
        COUNTING,
        "    return _listed_ramification(n, classes, map(entries.__getitem__, classes))\n",
        "    return Ramification(n, tuple([(lam, entries[lam]) for lam in classes]))\n",
        (f"{CHECKED_ONCE}[count-9-spec]", f"{CHECKED_ONCE}[parse_ramification-spec]"),
    ),
    Mutant(
        "the walk's classes are checked again by CycleType's __post_init__",
        PERM,
        "    return [_trusted_cycle_type(n, pairs) for _, pairs in walk_cycle_types(n)]\n",
        "    return [CycleType(n, pairs) for _, pairs in walk_cycle_types(n)]\n",
        (f"{CHECKED_ONCE}[enumerate_cycle_types]", f"{CHECKED_ONCE}[reps-8-all1]"),
    ),
    Mutant(
        "verify's cases are checked again by Ramification's __post_init__",
        CLI,
        "        ram = _listed_ramification(args.n, classes, multiplicities)\n",
        "        from .counting import Ramification\n"
        "        ram = Ramification(args.n, tuple(zip(classes, multiplicities)))\n",
        (f"{CHECKED_ONCE}[verify-4]",),
    ),
    Mutant(
        "the class walk without its class-list bound",
        PERM,
        "    if n > MAX_CLASS_LIST_N:\n",
        "    if False:\n",
        ("tests/test_perm.py::TestEnumerateCycleTypes::test_bound_on_n",
         f"{TEST_CLI}::TestCount::test_class_list_bound_exits_2"),
    ),
    Mutant(
        "spec numbers read by int(), which takes signs, underscores and other scripts' digits",
        PERM,
        "    if not (text.isascii() and text.isdigit()):\n",
        "    if False:\n",
        (f"{TEST_CLI}::TestCount::test_spec_numbers_are_ascii_digits",),
    ),
    Mutant(
        "index_moves sends each base point where the next one goes",
        ORACLE,
        "        for target, chars in zip(targets, maps):\n",
        "        for target, chars in zip(targets[1:] + targets[:1], maps):\n",
        (f"{TEST_ORACLE}::TestJointReading::test_every_support_of_s2_and_s3",
         f"{TEST_ORACLE}::TestJointReading::test_pinned_supports"),
    ),
    Mutant(
        "the tail block walked afresh at each restart, its tee dropped",
        COUNTING,
        "        restart = tee(_lines(entries[b:last], shapes[b:last], replays, firsts, restart), 1)[0].__copy__\n",
        "        restart = lambda tail=restart: _lines(entries[b:last], shapes[b:last], replays, firsts, tail)\n",
        (f"{TEST_COUNTING}::TestEnumerateTypes::test_block_makes_no_cursor_after_its_first_walk",),
    ),
    Mutant(
        "the tail block sized without the _REPLAY_PARTS room",
        COUNTING,
        "        if multiset_coefficient(g, r) * multiset_coefficient(*shape) * (g + shape[0]) <= room:\n",
        "        if True:\n",
        (f"{TEST_COUNTING}::TestEnumerateTypes::test_block_memory_is_bounded",),
    ),
    Mutant(
        "the CLI's integer arguments read by int()",
        CLI,
        "        value = _natural(text)\n",
        "        value = int(text)\n",
        (f"{TEST_CLI}::TestCount::test_cli_integers_are_ascii_digits",),
    ),
    Mutant(
        "spec numbers past int()'s digit limit not refused by their length",
        PERM,
        "    if limit and len(text) > limit:\n",
        "    if False:\n",
        (f"{TEST_CLI}::TestCount::test_over_long_spec_numbers_are_refused_by_length",),
    ),
)


def _copy(tmp: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")


def _pytest(tmp: Path, nodes) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)


def _apply(tmp: Path, mutant: Mutant) -> None:
    path = tmp / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        baseline = _pytest(Path(tmp), sorted({node for m in MUTANTS for node in m.nodes}))
    if baseline.returncode != 0:
        print(baseline.stdout[-2000:])
        raise SystemExit("the catalogue's tests do not pass on the unedited tree")
    failures = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            _apply(Path(tmp), mutant)
            result = _pytest(Path(tmp), mutant.nodes)
        status = {0: "SURVIVED", 1: "killed"}.get(result.returncode, f"NOT RUN (pytest exit {result.returncode})")
        print(f"{status:>8}  {mutant.name}")
        if result.returncode != 1:
            failures.append(mutant.name)
            print(result.stdout[-2000:])
    killed = len(MUTANTS) - len(failures)
    print(f"mutants: {killed} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
