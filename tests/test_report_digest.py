"""The report bytes stay put: `report_digest.py`'s hash is pinned.

The hash covers the demo and every seed-0 op of the three benchmark
workloads, machine and text report alike (see `report_digest.py`). It
moves only when a change alters what a report says, and then on purpose.
"""

from report_digest import report_digest

DIGEST = "c31d014498bbb41a0cce044e4d226a68aed52ee0487d554837c1f3ed1c14fc62"


def test_reports_render_the_pinned_bytes():
    assert report_digest() == (DIGEST, 384)
