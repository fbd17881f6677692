import collections

import qram


def test_every_public_name_resolves_once():
    repeated = [name for name, count in collections.Counter(qram.__all__).items()
                if count > 1]
    assert not repeated
    missing = [name for name in qram.__all__ if not hasattr(qram, name)]
    assert not missing


#: Names of the scalar utility model and of test-only helpers that left the
#: package; tests/helpers.py keeps the references.
REMOVED = ("quality", "snr", "task_utility", "utility_from_quality",
           "QualityValue", "raw_quotient", "greedy_action")


def test_removed_names_stay_out_of_the_package():
    import qram.perf
    assert not set(REMOVED) & set(qram.__all__)
    assert not [name for name in REMOVED
                if hasattr(qram, name) or hasattr(qram.perf, name)]
