import pytest

import bellopt


@pytest.mark.parametrize("name", bellopt.__all__)
def test_exported_name_resolves(name):
    assert getattr(bellopt, name) is not None
