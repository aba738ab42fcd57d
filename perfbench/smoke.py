"""Self-test of the benchmark at tiny scale (about a minute).

    python3 perfbench/smoke.py

For every workload ``run.py`` accepts it checks that

* an untraced run exits 0, passes its correctness check and reports every
  end-to-end metric of ``BENCHMARK.json`` with its unit, and that its report
  names every reported metric (``frame_ms_p50``, ``serve_rps``, ...);
* a traced run reports every per-layer metric with its unit;
* a run with one output deliberately corrupted (a detection or a hit
  dropped) fails its check and exits non-zero;
* no run leaves a process behind (each runs in a session of its own, which
  must be empty once the run has exited);

and that the command fails without printing a result when the program's
sources are absent.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


REPORTED = {
    "drive": ["frame_ms_p50", "frame_ms_tail", "scan_ms_p50", "scan_ms_tail",
              "fail_frac", "setup_s", "peak_rss_mb"],
    "map-serve": ["serve_rps", "radius_ms_p50", "radius_ms_tail",
                  "knn_ms_p50", "knn_ms_tail", "knn_ms_mean", "fail_frac",
                  "setup_s", "peak_rss_mb"],
}


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace),
               "--scale", "smoke", *extra]
    done = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    out, err = done.communicate(timeout=300)
    left = _session_members(done.pid)
    _expect(not left, f"{workload}: processes left running: {left}")
    return done.returncode, out, err


def _session_members(session: int) -> list:
    """Ids of the live processes in ``session`` (Linux ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == session:
                    members.append(int(entry))
            except OSError:
                pass
    return members


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys: {sorted(result)}")
    return result


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_metrics(result: dict, wanted: list, label: str) -> None:
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    want = {entry["name"]: entry["unit"] for entry in wanted}
    _expect(got == want, f"{label}: metrics {got} != {want}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracked = [entry["name"] for entry in spec["workloads"]]
    _expect(set(tracked) <= set(WORKLOADS), f"unknown workloads in {tracked}")
    for workload in WORKLOADS:
        code, out, err = _run(ROOT, workload, 0)
        _expect(code == 0, f"{workload}: exit {code}\n{out}\n{err}")
        result = _result(out)
        _expect(result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1, f"{workload}: {result}")
        _check_metrics(result, spec["end_to_end"], workload)
        names = REPORTED["map-serve" if workload == "map-serve" else "drive"]
        for name in names:
            _expect(f"\n{name}: " in out, f"{workload}: report lacks {name}")
        for line in ("nproc: ", "python: ", "numpy: ", "service workers: ",
                     "client threads: "):
            _expect(line in out, f"{workload}: report lacks {line!r}")

        code, out, err = _run(ROOT, workload, 1)
        _expect(code == 0, f"{workload} traced: exit {code}\n{out}\n{err}")
        _check_metrics(_result(out), spec["per_layer"], f"{workload} traced")

        code, out, err = _run(ROOT, workload, 0, "--inject-fault")
        result = _result(out)
        _expect(code == 1 and not result["correct"] and result["failed"] >= 1,
                f"{workload}: corrupted output not caught ({code}, {result})")
        _expect("MISMATCH" in out, f"{workload}: no mismatch reported")
        print(f"ok: {workload}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out, err = _run(Path(bare), tracked[0], 0)
        _expect(code != 0 and not out.strip(),
                f"without sources: exit {code}, output {out!r}")
    print("ok: fails cleanly without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
