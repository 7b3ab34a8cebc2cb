import pytest

from zdmn import networks


@pytest.fixture(scope="session")
def bundled_specs():
    """Every bundled network at its default parameters."""
    return {name: networks.bundled_spec(name) for name in networks.BUNDLED}
