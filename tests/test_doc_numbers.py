"""README benchmark tables must match the committed ``BENCH_*.json`` files.

Each figure is compared at the precision the README prints it with, so a
regenerated bench file that moves a printed digit fails here until the
table is updated.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: One table row: ``| label | value [s] | [**]speedup×[**] |``.
ROW = re.compile(
    r"^\| (?P<label>[^|]+?) \| (?P<value>[0-9.]+)(?: s)? \| "
    r"\**(?P<speedup>[0-9.]+)×\** \|$",
    re.MULTILINE,
)


def _bench(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def _rows(heading: str) -> "dict[str, tuple[str, str]]":
    """Label -> (value, speedup) of the table under ``heading``."""
    start = README.index(heading)
    end = README.index("\n\n", start + len(heading))
    return {
        m["label"]: (m["value"], m["speedup"])
        for m in ROW.finditer(README[start:end])
    }


def _printed(value: float, shown: str) -> str:
    """``value`` formatted with as many decimals as ``shown`` has."""
    decimals = len(shown.partition(".")[2])
    return f"{value:.{decimals}f}"


def _check(rows, expected) -> None:
    assert set(rows) == set(expected), "table rows differ from the bench"
    for label, (value, speedup) in expected.items():
        shown_value, shown_speedup = rows[label]
        assert shown_value == _printed(value, shown_value), label
        assert shown_speedup == _printed(speedup, shown_speedup), label


def test_sweep_table_matches_bench_sweep():
    bench = _bench("BENCH_sweep.json")
    labels = {
        "pr2_baseline": "`pr2_baseline` (list recorder)",
        "recorder_only": "`recorder_only`",
        "cohort": "`cohort` (all 36 cells as one stacked simulation)",
    }
    assert set(labels) == set(bench["configs"])
    expected = {
        labels[name]: (
            bench["configs"][name],
            bench["speedups_vs_pr2_baseline"][name],
        )
        for name in labels
    }
    rows = _rows("| configuration | wall-clock | speedup vs PR-2 baseline |")
    _check(rows, expected)


def test_search_table_matches_bench_search():
    bench = _bench("BENCH_search.json")
    expected = {
        "naive (full window each)": (bench["naive_candidates_per_s"], 1.0),
        "pruned + cohort-batched": (
            bench["search_candidates_per_s"],
            bench["speedup"],
        ),
    }
    rows = _rows("| configuration | candidates/s | speedup vs naive |")
    _check(rows, expected)


#: One compiled-tier row, ``| section | numpy | compiled | speedup× |``
#: (speedup optionally bold), with both timings in µs or s.
COMPILED_ROW = re.compile(
    r"^\| (?P<label>[^|]+?) \| (?P<numpy>[0-9.]+) (?:µs|s) \| "
    r"(?P<compiled>[0-9.]+) (?:µs|s) \| \**(?P<speedup>[0-9.]+)×\** \|$",
    re.MULTILINE,
)


def test_compiled_table_matches_bench_compiled():
    bench = _bench("BENCH_compiled.json")
    kernels = bench["kernels"]
    end_to_end = bench["end_to_end"]
    expected = {
        "fused dispatch (132 branches, live tick)": (
            kernels["dispatch"]["numpy_us"],
            kernels["dispatch"]["compiled_us"],
            kernels["dispatch"]["speedup"],
        ),
        "breaker thermal step (132 branches)": (
            kernels["breaker"]["numpy_us"],
            kernels["breaker"]["compiled_us"],
            kernels["breaker"]["speedup"],
        ),
        "steady-drain replay (4 stacked cells, 1 800 s)": (
            kernels["steady_drain"]["numpy_s"],
            kernels["steady_drain"]["compiled_s"],
            kernels["steady_drain"]["speedup"],
        ),
        "end-to-end Phase-I sustained-overload sweep": (
            end_to_end["numpy_s"],
            end_to_end["compiled_s"],
            end_to_end["speedup"],
        ),
    }
    heading = "| section | numpy | compiled | speedup |"
    start = README.index(heading)
    end = README.index("\n\n", start + len(heading))
    rows = {
        m["label"]: (m["numpy"], m["compiled"], m["speedup"])
        for m in COMPILED_ROW.finditer(README[start:end])
    }
    assert set(rows) == set(expected), "table rows differ from the bench"
    for label, values in expected.items():
        for value, shown in zip(values, rows[label]):
            assert shown == _printed(value, shown), label


@pytest.mark.parametrize("value, shown, text", [
    (34.7902, "41.1", "34.8"),
    (7.895, "7.96", "7.89"),
    (9.486, "10.88", "9.49"),
])
def test_printed_precision_follows_the_readme(value, shown, text):
    assert _printed(value, shown) == text
