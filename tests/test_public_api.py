"""The package's public name list stays in step with what it defines."""

import neumann_bounds


def test_every_exported_name_resolves():
    missing = [name for name in neumann_bounds.__all__
               if not hasattr(neumann_bounds, name)]
    assert missing == []


def test_exported_names_are_unique():
    names = neumann_bounds.__all__
    assert len(names) == len(set(names))
