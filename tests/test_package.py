import types

import szegolab


def test_all_lists_resolvable_non_module_names():
    assert len(set(szegolab.__all__)) == len(szegolab.__all__)
    for name in szegolab.__all__:
        obj = getattr(szegolab, name)
        assert not isinstance(obj, types.ModuleType), name
