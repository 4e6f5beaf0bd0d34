import ramsys


def test_every_exported_name_resolves_and_is_public():
    assert len(ramsys.__all__) == len(set(ramsys.__all__))
    for name in ramsys.__all__:
        assert not name.startswith("_"), name
        assert getattr(ramsys, name) is not None
