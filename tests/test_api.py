"""The package's public names."""
import mptrotter


def test_all_is_sorted_unique_and_resolves():
    names = mptrotter.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(mptrotter, name)]
    assert missing == []
