import importlib.util
import json
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
