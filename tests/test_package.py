import collections

import qram


def test_every_public_name_resolves_once():
    repeated = [name for name, count in collections.Counter(qram.__all__).items()
                if count > 1]
    assert not repeated
    missing = [name for name in qram.__all__ if not hasattr(qram, name)]
    assert not missing
