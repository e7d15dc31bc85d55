"""Correctness witnesses and placement guards.

Host time is the metric; what the simulation computes is fixed by the
bit-identical-replay contract, so it is checked, never measured.  Every
function returns ``{check name: passed}``; a failed check counts as a
failed operation and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

#: seed whose event count and final sim clock are committed per workload
DEFAULT_SEED = 1
WITNESSES_FILE = Path(__file__).resolve().parent / "witnesses.json"


def load_witnesses() -> dict:
    return json.loads(WITNESSES_FILE.read_text())


def lu_placement(instants, loop_start: float, loop_end: float,
                 post_restart_events: int) -> dict:
    """Every checkpoint lands inside the LU timed loop, and the restarted
    job still has work to do (a round after the loop drains an idle job)."""
    return {
        "lu: every checkpoint inside the timed loop":
            bool(instants) and all(loop_start < t < loop_end
                                   for t in instants),
        "lu: post-restart segment does work": post_restart_events > 0,
    }


def bigmem_placement(rounds) -> dict:
    """Each incremental round recaptures dirty chunks that the store has
    not seen (constant fills would dedup the dirty chunks away)."""
    incremental = rounds[1:]
    return {
        "bigmem: every incremental round has dirty chunks":
            bool(incremental) and all(d > 0 for d, _n in incremental),
        "bigmem: every incremental round stores new chunks":
            bool(incremental) and all(n > 0 for _d, n in incremental),
    }


def ledgers_balance(ledger: dict) -> bool:
    return all(abs(row["bytes_admitted"]
                   - (row["bytes_stored"] + row["bytes_rejected"]))
               <= max(1.0, 1e-6 * row["bytes_admitted"])
               for row in ledger.values())


def service_checks(outcomes, ledger: dict, service: dict,
                   shape_checksums: dict) -> dict:
    """Every uncapped job completes, the ledgers balance, and every job -
    preempted ones included - ends on the checksum its shape computes
    when run alone.  The stream must also preempt and hit the quota, or it
    does not measure what it claims."""
    uncapped = [o for o in outcomes if o["tenant"] != workloads.SVC_CAPPED]
    return {
        "service: every uncapped job ok": all(o["ok"] for o in uncapped),
        "service: tenant ledgers balance": ledgers_balance(ledger),
        "service: every job matches its solo checksum": all(
            o["checksum"] == shape_checksums.get(o["shape"])
            for o in outcomes if o["ok"]),
        "service: the stream preempts":
            any(o["preemptions"] > 0 for o in outcomes),
        "service: the capped tenant hits its quota":
            service["puts_rejected"] > 0,
    }


def check(workload: str, seed: int, raw: dict, out: dict) -> dict:
    expected = load_witnesses()[workload]
    if workload == "lu_restart":
        checks = {"lu: checksum equals the crash-free run":
                  raw["checksums"] == [expected["checksum"]]}
        checks.update(lu_placement(raw["instants"], raw["loop_start"],
                                   raw["loop_end"],
                                   raw["post_restart_events"]))
    elif workload == "bigmem_store":
        checks = {"bigmem: checksums equal the numpy replay":
                  raw["checksums"] == workloads.bm_expected_checksums(seed)}
        checks.update(bigmem_placement(raw["rounds"]))
    else:
        checks = service_checks(raw["outcomes"], raw["ledger"],
                                raw["service"], expected["shape_checksums"])
    if seed == DEFAULT_SEED:
        checks[f"{workload}: events equal the committed witness"] = \
            out["events"] == expected["events"]
        checks[f"{workload}: sim clock equals the committed witness"] = \
            out["sim_seconds"] == expected["sim_seconds"]
    return {name: bool(ok) for name, ok in checks.items()}
