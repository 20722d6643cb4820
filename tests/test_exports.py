"""The package's export list names only what the package holds."""

import exigraph


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from exigraph import *", namespace)  # raises on a missing name
    missing = [name for name in exigraph.__all__
               if not hasattr(exigraph, name) or name not in namespace]
    assert missing == []
