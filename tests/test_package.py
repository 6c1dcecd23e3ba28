import altismooth


def test_every_export_resolves():
    missing = [name for name in altismooth.__all__ if not hasattr(altismooth, name)]
    assert missing == []
    assert len(set(altismooth.__all__)) == len(altismooth.__all__)
