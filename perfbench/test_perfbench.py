"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import witness  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SIM = ("/x/src/repro/sim/core.py", 10, "step")
CAPTURE = ("/x/src/repro/dmtcp/image.py", 5, "capture")
PUT = ("/x/src/repro/store/store.py", 1, "put")
NUMPY = ("/usr/lib/site-packages/numpy/core/x.py", 1, "f")
ZLIB = ("~", 0, "<built-in method zlib.compress>")

#: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)}), as pstats stores them
PROFILE = {
    SIM: (1, 1, 1.0, 4.85, {}),
    CAPTURE: (1, 1, 0.5, 2.0, {SIM: (1, 1, 0.5, 2.0)}),
    PUT: (1, 1, 0.1, 0.85, {}),
    NUMPY: (1, 1, 0.25, 0.75, {PUT: (1, 1, 0.25, 0.75)}),
    ZLIB: (5, 5, 2.0, 2.0, {CAPTURE: (4, 4, 1.5, 1.5),
                            NUMPY: (1, 1, 0.5, 0.5)}),
}


def test_fold_charges_builtins_and_numpy_to_the_calling_layer():
    self_s = layers.fold(PROFILE)
    assert self_s["sim"] == pytest.approx(1.0)
    assert self_s["dmtcp"] == pytest.approx(0.5 + 1.5)
    # numpy's own time and the zlib it called both belong to the store
    assert self_s["store"] == pytest.approx(0.1 + 0.25 + 0.5)
    assert self_s["other"] == 0.0
    total = sum(row[2] for row in PROFILE.values())
    assert sum(self_s.values()) == pytest.approx(total)
    assert sum(layers.shares(self_s).values()) == pytest.approx(1.0)


def test_builtin_calls_are_attributed_through_callers():
    calls, seconds = layers.builtin_by_layer(PROFILE, ZLIB[2], "dmtcp")
    assert (calls, seconds) == (4, pytest.approx(1.5))
    calls, seconds = layers.builtin_by_layer(PROFILE, ZLIB[2], "store")
    assert (calls, seconds) == (1, pytest.approx(0.5))


def test_layer_of_maps_packages_and_the_rest_to_other():
    assert layers.layer_of("/a/src/repro/core/ib_plugin/plugin.py") == "core"
    assert layers.layer_of("/a/src/repro/upc/runtime.py") == "other"
    assert layers.layer_of("/a/src/repro/__init__.py") == "other"
    assert layers.layer_of("/usr/lib/python3.11/zlib.py") is None


def _lu_raw(checksum):
    start = workloads.LU_LOOP_START
    return {"checksums": [checksum],
            "instants": [start + 0.01, start + 0.02],
            "loop_start": start,
            "loop_end": start + workloads.LU_LOOP_SECONDS,
            "post_restart_events": 1000}


def test_witness_rejects_a_perturbed_checksum():
    good = witness.load_witnesses()["lu_restart"]["checksum"]
    assert all(witness.check("lu_restart", 7, _lu_raw(good), {}).values())
    checks = witness.check("lu_restart", 7, _lu_raw(good * (1 + 1e-12)), {})
    assert checks == {**{k: True for k in checks},
                      "lu: checksum equals the crash-free run": False}


def test_service_witness_rejects_a_perturbed_job_checksum():
    shapes = witness.load_witnesses()["service_stream"]["shape_checksums"]
    outcomes = [{"tenant": "acme", "shape": "lu.A", "ok": True,
                 "checksum": shapes["lu.A"], "preemptions": 1}]
    ledger = {"acme": {"bytes_admitted": 10.0, "bytes_stored": 7.0,
                       "bytes_rejected": 3.0}}
    service = {"puts_rejected": 2}
    assert all(witness.service_checks(outcomes, ledger, service,
                                      shapes).values())
    outcomes[0]["checksum"] *= 1 + 1e-9
    assert not witness.service_checks(outcomes, ledger, service, shapes)[
        "service: every job matches its solo checksum"]


def test_default_seed_witnesses_pin_events_and_clock():
    expected = witness.load_witnesses()["lu_restart"]
    raw = _lu_raw(expected["checksum"])
    out = {"events": expected["events"] + 1,
           "sim_seconds": expected["sim_seconds"]}
    checks = witness.check("lu_restart", witness.DEFAULT_SEED, raw, out)
    assert not checks["lu_restart: events equal the committed witness"]
    assert checks["lu_restart: sim clock equals the committed witness"]


def test_placement_guard_rejects_an_after_loop_checkpoint():
    # run_nas(checkpoint_after=0.1) at 128 ranks: the round lands at
    # ~8.69 s sim, after the LU loop ended at ~4.17 s
    checks = witness.lu_placement([8.69], 4.147, 4.17, 100)
    assert not checks["lu: every checkpoint inside the timed loop"]
    assert not witness.lu_placement([4.16], 4.147, 4.17, 0)[
        "lu: post-restart segment does work"]
    assert all(witness.lu_placement([4.15, 4.16], 4.147, 4.17, 1).values())


def test_bigmem_guard_rejects_rounds_that_store_nothing_new():
    assert all(witness.bigmem_placement([(8192, 8192), (170, 170)])
               .values())
    checks = witness.bigmem_placement([(8192, 8192), (170, 0)])
    assert not checks["bigmem: every incremental round stores new chunks"]


class _Stats:
    events, heap_peak, batches = 100, 7, 40


class _Env:
    stats = _Stats()


def test_every_printed_metric_is_declared_in_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END == declared_e2e
    assert {n: run.per_layer_unit(n) for n in declared_layer} \
        == declared_layer
    assert set(BENCHMARK["workloads"][i]["name"] for i in range(3)) \
        == set(run.WORKLOADS)

    rep = {"wall_s": 2.0, "events": 100, "ckpt_s": [0.5, 0.7],
           "restart_s": [0.3], "jobs": 1, "peak_rss_mb": 120.0}
    assert set(run.end_to_end([rep], [0.4, 0.5])) == set(declared_e2e)

    probe = Probe()
    probe.rounds.append((0.5, True, {"chunks_total": 4, "chunks_dirty": 1}))
    import cProfile
    profiler = cProfile.Profile()
    profiler.enable()
    sum(range(1000))
    profiler.disable()
    traced = {"wall_s": 4.0, "counts": child.counts({"env": _Env()}, probe),
              "layers": child.traced_layers(profiler)}
    assert set(run.per_layer(rep, traced)) == set(declared_layer)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lu_restart",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
