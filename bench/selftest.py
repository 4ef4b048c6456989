"""Self-test of the benchmark at toy size.

Run from the root of a source checkout:

    python3 bench/selftest.py

It runs every workload on a small dataset, untraced and traced, and checks
that every metric ``BENCHMARK.json`` names is printed with its unit, that
end-to-end values and the workload's own figures are positive, that two
runs with one seed give one fingerprint, that a deliberately corrupted read
is counted as a failed operation and makes the command exit non-zero, and
that the command refuses to run in a directory without the package.  Exits
1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from rolecrypt.engine import Engine  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class SelfTestError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def invoke(name: str, trace: int, seed: int = 1):
    """Run one toy-size workload in-process; return (exit code, info line,
    result line)."""
    buf = io.StringIO()
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(argv, scale=workloads.TOY)
    lines = buf.getvalue().strip().splitlines()
    return rc, json.loads(lines[-2]), json.loads(lines[-1])


def check_workloads() -> None:
    require(
        [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json and workloads.py name different workloads",
    )
    for name in workloads.WORKLOADS:
        fingerprints = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, info, result = invoke(name, trace)
            require(rc == 0 and result["correct"], f"{name} trace={trace} failed: {result}")
            require(result["attempted"] >= 1 and result["failed"] == 0, f"{name}: {result}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == want, f"{name} trace={trace}: metrics {got} != {want}")
            if trace == 0:
                bad = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                require(not bad, f"{name}: end-to-end metrics not positive: {bad}")
            for key in ("nproc", "python", "git_rev", "seed"):
                require(key in info["env"], f"{name}: environment lacks {key}")
            require(info["why"] == workloads.WHY[name], f"{name}: no reason recorded")
            want_figures = len(workloads.SERVE_LATENCIES) if name == "serve-firewall1" else 1
            require(
                len(info["figures"]) == want_figures
                and all(f["value"] > 0 and f["unit"] for f in info["figures"].values()),
                f"{name}: figures {info['figures']}",
            )
            fingerprints.append(info["fingerprint"])
        require(
            fingerprints[0] == fingerprints[1],
            f"{name}: one seed gave two fingerprints {fingerprints}",
        )
        print(f"ok  {name}: metrics, units and fingerprint")


def check_corrupted_read() -> None:
    original = Engine.read_file
    calls = [0]

    def corrupted(self, user, fn):
        body = original(self, user, fn)
        calls[0] += 1
        return body + b"!" if calls[0] == 3 else body

    Engine.read_file = corrupted
    try:
        rc, _, result = invoke("serve-firewall1", 0)
    finally:
        Engine.read_file = original
    require(calls[0] >= 3, "the serve workload made fewer than three reads")
    require(
        rc == 1 and not result["correct"] and result["failed"] == 1,
        f"a corrupted read was not counted as one failure: rc={rc} {result}",
    )
    print("ok  a corrupted read counts as failed and exits non-zero")


def check_bare_directory() -> None:
    tmp = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
        shutil.copytree(
            BENCH_DIR, tmp / BENCH_DIR.name,
            ignore=shutil.ignore_patterns(".work-*", "__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "check-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    require(proc.returncode != 0, "run.py succeeded without the package")
    require('"correct"' not in proc.stdout, "run.py printed a result without the package")
    print("ok  without the package the command exits non-zero and prints no result")


def main() -> int:
    try:
        check_workloads()
        check_corrupted_read()
        check_bare_directory()
    except SelfTestError as e:
        print(f"FAIL {e}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
