import hypothesis
import pytest

from padicharm.expansion import vp_H_expansion

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=400, deadline=None)
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def _empty_decided_prefix_store():
    """Each test starts and ends with vp_H_expansion's decided-prefix store
    empty, so no test reads records another one left."""
    vp_H_expansion.cache_clear()
    yield
    vp_H_expansion.cache_clear()

