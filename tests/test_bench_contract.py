"""The benchmark's calls into descyc, run at its tiny sizes.

perfbench/ lies outside the test paths, so without this test a change that
renames a traced function or alters a call the workloads make would only
show when the benchmark itself runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_round():
    """perfbench/round.py as a module; it imports workloads as ``wl``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            "perfbench_round", PERFBENCH / "round.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


def test_traced_names_resolve(bench_round):
    for name in bench_round.SPANNED + bench_round.COUNTED:
        module_name, func_name = name.rsplit(".", 1)
        module = importlib.import_module(f"descyc.{module_name}")
        assert callable(getattr(module, func_name, None)), name


def test_tiny_workloads_pass_their_checkers(bench_round):
    wl = bench_round.wl
    n = wl.SCAN_N["tiny"]
    assert wl.scan_ok(n, wl.scan_op(n, jobs=wl.SCAN_JOBS))
    max_n = wl.VERIFY_MAX_N["tiny"]
    assert wl.verify_failures(max_n, wl.verify_op(max_n)) == (
        wl.VERIFY_CHECKS[max_n], 0)
    stream = wl.query_stream(7, 0, wl.QUERY_COUNT["tiny"])
    answers = [wl.answer(q) for q in stream]
    assert wl.query_failures(stream, answers, wl.Reference()) == 0
