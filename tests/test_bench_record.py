import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_output_splits_run_lines():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    record = {"workload": "scan", "seed": 7, "walls_s": [0.5, 0.4]}
    text = "\n".join([
        "setup_s = 0.15 s",
        "wall_s = 0.5 s",
        "error_rate = 0 (0 failed of 3 attempted)",
        "record " + json.dumps(record),
        json.dumps(result),
    ]) + "\n"
    doc = _load_tool().parse_output(text)
    assert doc == {
        "metric_lines": ["setup_s = 0.15 s", "wall_s = 0.5 s"],
        "error_rate": "error_rate = 0 (0 failed of 3 attempted)",
        "record": record,
        "result": result,
    }


def test_main_byte_compiles_the_checkout(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("VALUE = 1\n")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    args = ["--workload", "scan", "--seed", "1", "--label", "t", "--root", str(tmp_path)]
    assert _load_tool().main(args) == 3  # run.py failed, so nothing is written
    compiled = {path.name.split(".")[0] for path in package.glob("__pycache__/*.pyc")}
    assert compiled == {"__init__", "mod"}


def test_main_passes_the_trace_flag(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    (tmp_path / "perfbench").mkdir()
    # exits 10 + the --trace value, so nothing is written
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nraise SystemExit(10 + int(sys.argv[sys.argv.index('--trace') + 1]))\n")
    args = ["--workload", "verify", "--seed", "1", "--label", "t", "--root", str(tmp_path)]
    tool = _load_tool()
    assert tool.main(args) == 10
    assert tool.main([*args, "--trace", "1"]) == 11


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                           "-c", "user.email=t@t", *args],
                          check=True, capture_output=True).stdout


def test_source_state_names_the_measured_tree(tmp_path):
    tool = _load_tool()
    (tmp_path / "a.txt").write_text("one\n")
    # no .git: nothing to name
    assert tool.source_state(tmp_path) == {"rev": None, "dirty": None, "diff_sha256": None}
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "one")
    head = _git(tmp_path, "rev-parse", "HEAD").decode().strip()
    empty = hashlib.sha256(b"").hexdigest()
    assert tool.source_state(tmp_path) == {"rev": head, "dirty": False, "diff_sha256": empty}
    hashes = set()
    for text in ("two\n", "three\n"):
        (tmp_path / "a.txt").write_text(text)
        state = tool.source_state(tmp_path)
        diff = hashlib.sha256(_git(tmp_path, "diff", "HEAD")).hexdigest()
        assert state == {"rev": head, "dirty": True, "diff_sha256": diff}
        hashes.add(diff)
    assert len(hashes) == 2 and empty not in hashes  # the hash follows the diff


PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_summary_counts_wins_and_compares_with_the_spread():
    summarize = _load_pairs().summarize
    parent = [30, 32, 31, 29, 33]
    change = [25, 26, 31, 24, 27]  # pair 2 is a tie
    assert summarize(parent, change, "lower") == {
        "parent_median": 31, "parent_quartiles": (30, 32),
        "change_median": 26, "change_quartiles": (25, 27),
        "gain": 5, "spread": 2, "wins": 4, "pairs": 5,
    }
    higher = summarize(parent, change, "higher")
    assert (higher["gain"], higher["wins"]) == (-5, 0)
    one = summarize([2.0], [1.0], "lower")
    assert one["parent_quartiles"] == (2.0, 2.0) and one["spread"] == 0
    assert (one["gain"], one["wins"]) == (1.0, 1)


def test_pair_summary_flags_a_loss_past_the_bound():
    pairs = _load_pairs()
    parent = [1.0, 1.0, 1.0]
    # a loss of exactly a quarter of the parent median is still within
    for change, better, past in (([1.25] * 3, "lower", False), ([1.3] * 3, "lower", True),
                                 ([0.75] * 3, "higher", False), ([0.7] * 3, "higher", True),
                                 ([0.5] * 3, "lower", False)):
        summary = pairs.summarize(parent, change, better, 0.25)
        assert summary["past_bound"] is past, (change, better)
        assert ("WORSE" in pairs.format_summary("wall_s", "s", summary)) is past
    assert "past_bound" not in pairs.summarize(parent, [9.0] * 3, "lower")
