"""Command-line front end: exit codes, outputs, written files."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rolecrypt
import rolecrypt.costmodel as costmodel
import rolecrypt.equivalence as eqv
from rolecrypt.cli import main
from rolecrypt.engine import Engine
from rolecrypt.workload import load_dataset
from test_equivalence import _StaleRewrapEngine
from test_workload import _LingeringMemberEngine


def _rows(path):
    return list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cost_table_default_profiles(capsys):
    assert main(["cost-table"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10  # header plus nine operation rows
    assert out[0].split()[:2] == ["party", "op"]
    by_key = {tuple(line.split()[:2]): line.split()[2:] for line in out[1:]}
    assert by_key[("invoker", "assignU")] == ["41", "63.5", "103.5"]
    assert by_key[("monitor", "write")] == ["38", "54", "54"]


def test_cost_table_all_profiles(capsys):
    assert main(["cost-table", "--profiles", "all"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert len(header) == 2 + 40


def test_cost_table_parses_scheme_data_once(monkeypatch, capsys):
    # all 40 profiles read one parse of data/schemes.json
    parses, load = [], json.load
    monkeypatch.setattr(
        costmodel, "json",
        types.SimpleNamespace(load=lambda fh: parses.append(1) or load(fh)),
    )
    costmodel.load_scheme_data.cache_clear()
    costmodel.scheme_profile.cache_clear()
    assert main(["cost-table", "--profiles", "all"]) == 0
    assert len(parses) == 1


def test_cost_table_unknown_profile(capsys):
    assert main(["cost-table", "--profiles", "BF+NOPE"]) == 2
    assert "unknown scheme profile" in capsys.readouterr().err


def test_check_passes(capsys):
    assert main(["check", "--traces", "4", "--labels", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "4 traces" in out and "2 variant(s)" in out


def test_check_options(capsys):
    rc = main([
        "check", "--traces", "2", "--labels", "12",
        "--variant", "ibe", "--no-costs", "--step-congruence",
    ])
    assert rc == 0


def test_check_reports_a_divergence(monkeypatch, capsys):
    monkeypatch.setattr(eqv, "Engine", _StaleRewrapEngine)
    assert main(["check", "--traces", "20"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert " DIVERGED: label " in lines[0]
    assert lines[1].startswith("  minimized to ")
    assert all(line.startswith("    ") for line in lines[2:-1])
    assert len(lines) - 3 == int(lines[1].split()[2])
    assert lines[-1].startswith("FAIL after ")
    assert err == ""


def test_simulate_check_costs_reports_an_engine_failure(
    monkeypatch, tmp_path, capsys
):
    # an exception inside the audited engine exits 1 with an error line
    # naming the event, not with a traceback
    monkeypatch.setattr(eqv, "Engine", _StaleRewrapEngine)
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "2", "--seed", "1",
        "--variant", "both", "--check-costs", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: engine failed at revokeU(u44, r10): UnauthorizedDecrypt("
    )
    assert err.count("\n") == 1


@pytest.mark.parametrize("variant", ["ibe", "pki"])
def test_simulate_check_costs_reports_a_theory_mismatch(
    monkeypatch, tmp_path, capsys, variant
):
    # the revoked member's UR pair lingers in the engine alone
    monkeypatch.setattr(eqv, "Engine", _LingeringMemberEngine)
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "2", "--seed", "1",
        "--variant", variant, "--check-costs", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: theory mismatch at revokeU(u17, r10): +[('UR', 'u17', 'r10'), "
    )
    assert err.count("\n") == 1


class _PkiStaleRewrapEngine(_StaleRewrapEngine):
    """Broken in the pki binding only: the ibe audit of a run passes."""

    def _rewrap_fks(self, src, dec_key, fn, dst, op):
        cls = _StaleRewrapEngine if self.provider.name == "pki" else Engine
        return cls._rewrap_fks(self, src, dec_key, fn, dst, op)


def test_simulate_check_costs_audits_each_variant(
    monkeypatch, tmp_path, capsys
):
    # the runs are priced once for both variants, but each variant's engine
    # is still audited: an engine broken only in pki fails the command
    monkeypatch.setattr(eqv, "Engine", _PkiStaleRewrapEngine)
    argv = [
        "simulate", "--dataset", "healthcare", "--runs", "2", "--seed", "1",
        "--check-costs", "--out", str(tmp_path),
    ]
    assert main(argv + ["--variant", "ibe"]) == 0
    capsys.readouterr()
    assert main(argv + ["--variant", "both"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: engine failed at revokeU(u44, r10): ")
    assert err.count("\n") == 1


def test_simulate_both_writes_what_each_variant_writes(tmp_path):
    # `--variant both` prices each run once; every row it writes under a
    # variant's name is the row that variant writes alone
    def simulate(variant):
        out = tmp_path / variant
        assert main([
            "simulate", "--dataset", "healthcare", "--runs", "3",
            "--seed", "5", "--variant", variant, "--events",
            "--out", str(out),
        ]) == 0
        return out

    both = simulate("both")
    for variant in ("ibe", "pki"):
        alone = simulate(variant)
        for name in ("runs.csv", "events.csv", "summary.csv"):
            rows = [r for r in _rows(both / name) if r["variant"] == variant]
            assert rows and rows == _rows(alone / name), (variant, name)


# Output bytes of `simulate` on the synthesized firewall1 dataset, recorded
# before revocations were priced in closed form and before the second
# variant's rows reused the numbers derived for the first: the closed forms
# at firewall1's deep key versions and the rows both variants share must
# leave both files byte-identical.
FIREWALL1_SHA256 = {
    "runs.csv": "df1cc45f32057cbbb0eb7ed226de8ff6ba0e07da3527d8242612cb5e6e5c9c3b",
    "summary.csv": "ef0375672a56f6acaf5b9d23a4632c05765ab311f17f448e4b90dd73dc4b9cfb",
}


def test_simulate_firewall1_output_is_pinned(tmp_path):
    assert main([
        "simulate", "--dataset", "firewall1", "--runs", "7", "--variant", "both",
        "--seed", "3", "--out", str(tmp_path),
    ]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FIREWALL1_SHA256
    }
    assert got == FIREWALL1_SHA256


def test_gen_dataset_writes_file(tmp_path, capsys):
    out = tmp_path / "hc.json"
    assert main(["gen-dataset", "--name", "healthcare", "--seed", "2",
                 "--out", str(out)]) == 0
    ds = load_dataset(str(out))
    assert ds.name == "healthcare"
    assert len(ds.users) == 46 and len(ds.roles) == 13 and len(ds.perms) == 46
    assert len(ds.ur) == 55 and len(ds.pa) == 359
    assert "wrote" in capsys.readouterr().out


def test_gen_dataset_unknown_name(capsys):
    # a usage error exits 2; exit 1 is reserved for a divergence
    assert main(["gen-dataset", "--name", "mystery"]) == 2
    assert "error: unknown dataset 'mystery'" in capsys.readouterr().err


def test_gen_dataset_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen-dataset", "--name", "healthcare", "--seed", "9", "--out", str(a)])
    main(["gen-dataset", "--name", "healthcare", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bundled_dataset(tmp_path, capsys):
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "2",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = _rows(tmp_path / "runs.csv")
    assert len(rows) == 2
    assert {r["variant"] for r in rows} == {"ibe"}
    assert (tmp_path / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "healthcare [ibe]" in out and "runs.csv" in out


def test_simulate_bundled_name_twice_into_a_directory_of_that_name(
    tmp_path, monkeypatch
):
    # the first run makes the directory healthcare/; a directory is not a
    # dataset file, so the second run still synthesizes the bundled dataset
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--dataset", "healthcare", "--runs", "1",
            "--out", "healthcare"]
    assert main(argv) == 0
    first = (tmp_path / "healthcare" / "runs.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "healthcare" / "runs.csv").read_bytes() == first


def test_simulate_writes_into_the_working_directory_by_default(
    tmp_path, monkeypatch
):
    # no environment variable moves the default output directory
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("ROLECRYPT_OUT_DIR", str(elsewhere))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--dataset", "healthcare", "--runs", "1"]) == 0
    assert (tmp_path / "runs.csv").exists()
    assert not elsewhere.exists()


def test_simulate_both_variants_with_events(tmp_path):
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "1", "--seed", "5",
        "--variant", "both", "--events", "--duration-days", "20",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = _rows(tmp_path / "runs.csv")
    assert [r["variant"] for r in rows] == ["ibe", "pki"]
    # identical seeds: both variants saw the same arrival sequence
    assert rows[0]["arrivals"] == rows[1]["arrivals"]
    assert rows[0]["ibe_enc"] == rows[1]["ibe_enc"]  # neutral-named counters
    events = _rows(tmp_path / "events.csv")
    assert events and {e["variant"] for e in events} == {"ibe", "pki"}


def test_simulate_dataset_file_and_check_costs(tmp_path):
    path = tmp_path / "ds.json"
    ds = {
        "name": "micro",
        "users": ["u1", "u2", "u3"],
        "roles": ["r1", "r2"],
        "perms": ["p1", "p2"],
        "ur": [["u1", "r1"], ["u2", "r2"]],
        "pa": [["r1", "p1"], ["r2", "p2"]],
    }
    path.write_text(json.dumps(ds), encoding="utf-8")
    rc = main([
        "simulate", "--dataset", str(path), "--runs", "3", "--seed", "1",
        "--duration-days", "60", "--check-costs", "--revocation-window", "7",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = _rows(tmp_path / "runs.csv")
    assert len(rows) == 3 and rows[0]["dataset"] == "micro"
    assert "max_revocations_per_window" in rows[0]


def test_simulate_unknown_dataset(tmp_path, capsys):
    rc = main(["simulate", "--dataset", "atlantis", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: 'atlantis' is neither a file nor a known dataset" in err


MICRO = {
    "name": "micro",
    "users": ["u1", "u2"],
    "roles": ["r1"],
    "perms": ["p1"],
    "ur": [["u1", "r1"]],
    "pa": [["r1", "p1"]],
}


def _simulate_broken(tmp_path, capsys, **change):
    path = tmp_path / "ds.json"
    ds = {k: v for k, v in {**MICRO, **change}.items() if v is not None}
    path.write_text(json.dumps(ds), encoding="utf-8")
    rc = main(["simulate", "--dataset", str(path), "--runs", "1",
               "--out", str(tmp_path)])
    return rc, capsys.readouterr().err


def test_simulate_dataset_missing_key(tmp_path, capsys):
    rc, err = _simulate_broken(tmp_path, capsys, ur=None)
    assert rc == 2
    assert err.startswith("error: ") and "ds.json" in err
    assert "missing key 'ur'" in err and "scheme profile" not in err


def test_simulate_dataset_unencodable_user(tmp_path, capsys):
    rc, err = _simulate_broken(tmp_path, capsys, users=["\ud800"], ur=[])
    assert rc == 2
    assert err.startswith("error: ") and str(tmp_path / "ds.json") in err
    assert "'users' holds '\\ud800', which UTF-8 cannot encode" in err


def test_simulate_dataset_without_users(tmp_path):
    # an actor whose rate is 0 has no arrivals
    path = tmp_path / "ds.json"
    path.write_text(
        json.dumps({**MICRO, "users": [], "ur": []}), encoding="utf-8"
    )
    rc = main([
        "simulate", "--dataset", str(path), "--runs", "2", "--variant",
        "both", "--check-costs", "--events", "--revocation-window", "7",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = _rows(tmp_path / "runs.csv")
    assert len(rows) == 4
    assert {(r["arrivals"], r["applied"]) for r in rows} == {("0", "0")}


def test_simulate_dataset_dangling_user(tmp_path, capsys):
    rc, err = _simulate_broken(tmp_path, capsys, ur=[["u9", "r1"]])
    assert rc == 2
    assert err.startswith("error: ") and "ds.json" in err
    assert "unknown user 'u9'" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "--traces", "-2"], "--traces"),
        (["check", "--traces", "abc"], "--traces"),
        (["check", "--labels", "-1"], "--labels"),
        (["simulate", "--runs", "-3"], "--runs"),
        (["simulate", "--runs", "1.5"], "--runs"),
        (["simulate", "--parallel", "0"], "--parallel"),
        (["simulate", "--duration-days", "-4"], "--duration-days"),
        (["simulate", "--duration-days", "nan"], "--duration-days"),
        (["simulate", "--revocation-window", "-1"], "--revocation-window"),
        (["simulate", "--revocation-window", "0"], "--revocation-window"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(argv, flag, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--dataset", "healthcare", "--out", str(tmp_path)]
        if "--runs" not in argv:
            argv += ["--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("command", ["cost-table", "simulate"])
def test_empty_profile_list_is_a_usage_error(command, tmp_path, capsys):
    argv = [command, "--profiles", ","]
    if command == "simulate":
        argv += ["--dataset", "healthcare", "--runs", "1",
                 "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: --profiles names no scheme profile" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("command", ["cost-table", "simulate"])
def test_repeated_profile_is_a_usage_error(command, tmp_path, capsys):
    # a repeated profile would print twin columns and write twin CSV headers
    argv = [command, "--profiles", "BF+CC,BB1+PS,BF+CC"]
    if command == "simulate":
        argv += ["--dataset", "healthcare", "--runs", "1",
                 "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: --profiles names 'BF+CC' twice" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


def test_revocation_window_too_small_to_count_is_an_error(tmp_path, capsys):
    # 30 days over a window below about 1.7e-307 days is more windows than
    # a float holds: an error naming the flag, and no output written
    out = tmp_path / "out"
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "2",
        "--revocation-window", "1e-320", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --revocation-window 1e-320 ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


def test_revocation_window_column_without_runs(tmp_path):
    # the column follows the flag, not the data: a zero-run batch has it too
    rc = main([
        "simulate", "--dataset", "healthcare", "--runs", "0",
        "--revocation-window", "5", "--out", str(tmp_path),
    ])
    assert rc == 0
    header = (tmp_path / "runs.csv").read_text(encoding="utf-8").splitlines()
    assert header == [header[0]]
    assert header[0].endswith(",max_revocations_per_window")


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["gen-dataset", "--name", "healthcare", "--out", "{dir}"], "{dir}"),
        (["simulate", "--dataset", "healthcare", "--out", "{file}"], "{file}"),
        (["simulate", "--dataset", "{dir}", "--out", "{dir}/out"], "{dir}"),
    ],
    ids=["gen-dataset-out-dir", "simulate-out-file", "simulate-dataset-dir"],
)
def test_unusable_path_is_an_error(argv, culprit, tmp_path, capsys):
    a_dir, a_file = tmp_path / "d", tmp_path / "f.txt"
    a_dir.mkdir()
    a_file.write_text("", encoding="utf-8")
    names = dict(dir=a_dir, file=a_file)
    argv = [a.format(**names) for a in argv]
    if argv[0] == "simulate":
        argv += ["--runs", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and culprit.format(**names) in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv")) and not (a_dir / "out").exists()


def test_simulate_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    # a non-ASCII dataset name under the C locale, with UTF-8 mode and
    # locale coercion off, so the locale's encoding is ASCII
    path = tmp_path / "ds.json"
    ds = {**MICRO, "name": "caf\u00e9"}
    path.write_bytes(json.dumps(ds, ensure_ascii=False).encode("utf-8"))
    src = str(Path(rolecrypt.__file__).parents[1])
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "rolecrypt.cli", "simulate", "--dataset",
         str(path), "--runs", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "runs.csv").read_bytes()
    assert runs.splitlines()[1].startswith("caf\u00e9,ibe,0,".encode("utf-8"))
    assert b"caf\\xe9 [ibe]: 1 runs" in proc.stdout
