"""Figs 5.5/5.6: sample overlay trees (US-only and transatlantic).

Not a metric series — the bench renders both trees, persists them, and
checks the paper's qualitative observation: clear per-continent
clustering with few cross-region links.
"""

import re

from repro.harness.experiments import ch5_sample_tree


def _cross_region_stats(text: str) -> tuple[int, int]:
    match = re.search(r"edges: (\d+), cross-region edges: (\d+)", text)
    assert match, "tree rendering missing the summary line"
    return int(match.group(1)), int(match.group(2))


def test_fig5_5_us_sample_tree(preset, results_dir):
    text = ch5_sample_tree(preset)
    print("\n" + text)
    (results_dir / "fig5_5.txt").write_text(text + "\n")
    edges, cross = _cross_region_stats(text)
    assert edges > 0
    assert cross == 0  # single-region pool: nothing to cross


def test_fig5_6_transatlantic_sample_tree(preset, results_dir, expect_shape):
    text = ch5_sample_tree(preset, transatlantic=True)
    print("\n" + text)
    (results_dir / "fig5_6.txt").write_text(text + "\n")
    edges, cross = _cross_region_stats(text)
    assert edges > 0
    # The paper: "There is a clear clustering in continents.  The
    # transatlantic connection is over only one link ... There might be
    # several connections in some cases.  But clustering is still
    # visible."  Allow a handful, require it to be a small minority.
    expect_shape(
        cross <= max(3, edges // 5),
        "cross-region links should be a small minority (clustering)",
    )
