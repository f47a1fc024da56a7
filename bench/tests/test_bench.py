"""Tests of the benchmark harness itself: spans, tracing, inputs and gates."""

import random
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402

worker.import_z2bord()


def test_self_time_subtracts_children_only():
    # Span 0 [0, 10] holds 1 [1, 4] and 2 [5, 9]; span 2 holds 3 [6, 8].
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 3.0, 2.0, 2.0]


def _z2bord_objects():
    """Every function-valued attribute of z2bord modules and their classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not (name == "z2bord" or name.startswith("z2bord.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = cvalue
            elif isinstance(value, types.FunctionType) or hasattr(value, "cache_info"):
                seen[(name, attr)] = value
    return seen


def test_traced_run_restores_every_wrapped_function(tmp_path, monkeypatch):
    import z2bord.cli  # noqa: F401  (with report, loads every module)
    import z2bord.report  # noqa: F401

    monkeypatch.setattr(worker, "OUT", tmp_path)
    before = _z2bord_objects()
    result = worker.run_rep("paper", 0, traced=True)
    assert result["failed"] == 0
    layers = result["layers"]
    assert layers["repalg.apply_automorphism.calls"] > 0
    assert layers["milnor.families_tried"] == 840
    assert (tmp_path / "paper-seed0.spans").is_file()
    after = _z2bord_objects()
    assert before.keys() <= after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def _small_systems():
    from z2bord.membership import build_constraint_system

    out = []
    for n, k in ((4, 3), (3, 3)):
        cs = build_constraint_system(n, k)
        out.append((cs, cs.nullspace_basis()))
    return out


def test_stream_batch_is_seeded_and_half_accepted():
    from z2bord.membership import check_membership

    systems = _small_systems()

    def batch(seed):
        return worker.make_batch(random.Random(f"check-stream/{seed}"), systems, (3, 4))

    first, again, other = batch(1), batch(1), batch(2)
    assert first == again
    assert first != other
    labels = [label for _, label in first]
    assert len(labels) == 2 * 7 * len(systems)
    assert labels.count(True) == labels.count(False)
    assert all(check_membership(p).accepted == label for p, label in first)


def test_paper_gate_fails_on_one_altered_line():
    expected = worker.EXPECTED_PAPER.read_text(encoding="utf-8")
    lines = expected.splitlines(keepends=True)
    assert len(lines) == 47
    assert worker.paper_failures(expected, 0, expected) == 0
    altered = lines[:]
    altered[10] = altered[10].replace("PASS", "FAIL")
    assert worker.paper_failures("".join(altered), 0, expected) == 1
    assert worker.paper_failures("".join(lines[:-1]), 0, expected) == 1
    assert worker.paper_failures(expected, 1, expected) == 47
