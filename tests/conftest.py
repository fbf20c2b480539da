import pytest

from afflap import chains, identities


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with empty value caches, so no test reads a table or
    product cached under another test's monkeypatch."""
    for cached in (chains.block_dim_table, identities._mu, identities._triple_product):
        cached.cache_clear()
