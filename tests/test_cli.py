import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from cswa import Hyperparams
from cswa.cli import main


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run_config(tmp_path, **extra):
    doc = {
        "num_participants": 10, "batch_size": 10, "max_subareas": 20,
        "window": 30, "latent": 2, "max_iters": 2000, "noise_sigma": 0.0,
        "seed": 2,
        "synthetic": {"num_subareas": 20, "num_cycles": 30, "rank": 2},
        "out": str(tmp_path / "out"),
    }
    doc.update(extra)
    return doc


# --- generate ---

def test_generate_is_byte_identical(tmp_path):
    doc = _run_config(tmp_path, seed=42)
    config = _write_config(tmp_path, doc)
    assert main(["generate", "--config", config]) == 0
    first = (tmp_path / "out" / "field.csv").read_bytes()
    first_schedule = (tmp_path / "out" / "schedule.json").read_bytes()
    assert main(["generate", "--config", config]) == 0
    assert (tmp_path / "out" / "field.csv").read_bytes() == first
    assert (tmp_path / "out" / "schedule.json").read_bytes() == first_schedule


def test_generate_field_shape(tmp_path):
    config = _write_config(tmp_path, _run_config(tmp_path))
    assert main(["generate", "--config", config]) == 0
    lines = (tmp_path / "out" / "field.csv").read_text().strip().splitlines()
    assert len(lines) == 21  # header + 20 subarea rows
    assert lines[0].split(",")[0] == "subarea"
    assert all(len(line.split(",")) == 31 for line in lines)


def test_generate_requires_synthetic_spec(tmp_path):
    doc = _run_config(tmp_path)
    del doc["synthetic"]
    doc["field_csv"] = str(tmp_path / "missing.csv")
    config = _write_config(tmp_path, doc)
    assert main(["generate", "--config", config]) == 2


# SHA-256 of each artifact of `cswa generate` then `cswa run --audit
# --transcript` on a README-style config (300-update budget, with
# missing_only_error), recorded before the coverage schedule became a
# boolean array; any change to coverage, observations, the run or the
# output formats moves one of them
_GOLDEN_ARTIFACTS = {
    "field.csv":
        "3dd5c239f01e4cbac3b9c05fc5f8ec7fd9935f23d6abee68b00383a98965fc23",
    "schedule.json":
        "3ba632643ae99e1a8539da6c83875a077b442341e2875cdcd6c32ba00d12b86f",
    "run_result.json":
        "0769d1ea32e43a9b97e42780b602d609a9159e3eab83c134fabf7eaebba5d30a",
    "transcript.jsonl":
        "f73c529bb8f4021e41a11bc32cb758fb72a2ddd672214ea92e6764cf5fce1b4f",
}


def test_cli_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the echoed relative `out` is in the bytes
    doc = {
        "num_participants": 10, "batch_size": 10, "max_subareas": 3,
        "window": 30, "latent": 2,
        "step_size": 1e-3, "reg_p": 1e-4, "reg_q": 1e-4,
        "grad_tol": 1e-4, "max_iters": 300, "noise_sigma": 0.01,
        "seed": 0,
        "synthetic": {"num_subareas": 20, "num_cycles": 30, "rank": 2},
        "end_cycle": None,
        "out": "out",
        "literal_update": False, "exclude_self": True,
        "require_convergence": False, "missing_only_error": True,
        "sweep": {"axis": "m", "values": [5, 10, 20],
                  "seeds": [0, 1, 2, 3, 4],
                  "methods": ["cswa", "centralized", "tsvd", "meanfill"]},
    }
    config = _write_config(tmp_path, doc)
    assert main(["generate", "--config", config]) == 0
    assert main(["run", "--config", config, "--audit", "--transcript"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in _GOLDEN_ARTIFACTS}
    assert digests == _GOLDEN_ARTIFACTS


def test_config_echo_reproduces_run_and_sweep(tmp_path, monkeypatch):
    # the echo of every artifact is a complete config: fed back in, it
    # reproduces the artifact
    monkeypatch.chdir(tmp_path)
    doc = _run_config(tmp_path, max_iters=40, window=10, end_cycle=25,
                      out="out", unit="ppm", missing_only_error=True)
    doc["sweep"] = {"axis": "m", "values": [4, 8], "seeds": [0, 1],
                    "methods": ["cswa", "meanfill"]}
    config = _write_config(tmp_path, doc)

    assert main(["run", "--config", config, "--transcript"]) == 0
    first = (tmp_path / "out" / "run_result.json").read_bytes()
    echo = json.loads(first)["config"]
    assert set(echo) == set(doc) | {"field_csv"} | {
        f.name for f in fields(Hyperparams)}
    echo_config = _write_config(tmp_path, echo, "echo.json")
    assert main(["run", "--config", echo_config]) == 0
    assert (tmp_path / "out" / "run_result.json").read_bytes() == first

    assert main(["sweep", "--config", config]) == 0
    first = json.loads((tmp_path / "out" / "sweep.json").read_text())
    config = _write_config(tmp_path, first["config"], "echo.json")
    assert main(["sweep", "--config", config]) == 0
    second = json.loads((tmp_path / "out" / "sweep.json").read_text())
    strip_wall = lambda doc: [dict(r, wall_ms=None) for r in doc["records"]]
    assert strip_wall(first) == strip_wall(second)
    assert first["config"] == second["config"]


# --- run ---

def test_run_zero_noise_full_coverage(tmp_path, capsys):
    # effectively full union coverage (s = |S|, 10 coverers/cycle),
    # zero noise: the pipeline must land well under 0.05 mean error
    config = _write_config(tmp_path, _run_config(tmp_path))
    assert main(["run", "--config", config]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("abs_error=")
    parts = dict(kv.split("=") for kv in line.split())
    assert float(parts["abs_error"]) < 0.05
    assert parts["chains_converged"].endswith("/10")
    doc = json.loads((tmp_path / "out" / "run_result.json").read_text())
    assert doc["abs_error"] == float(parts["abs_error"])
    assert doc["config"]["seed"] == 2
    assert len(doc["transcript"]) == int(parts["scalars"]) // (20 * 2 + 2 * 30)


def test_run_builds_observations_through_evaluation(tmp_path, monkeypatch):
    # `cswa run` and the sweep share one datagen path, which calls
    # assign_coverage_all and observe through cswa.evaluation
    from cswa import evaluation
    calls = []
    for name in ("assign_coverage_all", "observe"):
        original = getattr(evaluation, name)
        monkeypatch.setattr(evaluation, name, lambda *args, f=original, n=name:
                            calls.append(n) or f(*args))
    config = _write_config(tmp_path, _run_config(tmp_path, max_iters=5))
    assert main(["run", "--config", config]) == 0
    assert calls == ["assign_coverage_all", "observe"]


def test_run_rejects_oversized_latent_before_computing(tmp_path):
    doc = _run_config(tmp_path, latent=25, window=30)
    # latent 25 exceeds |S|=20: parameter error, exit 2
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config]) == 2


def test_run_audit_flag_reports_pass(tmp_path, capsys):
    doc = _run_config(tmp_path, max_iters=40)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--audit"]) == 0
    assert "audit=pass" in capsys.readouterr().out


def test_run_seed_override_wins(tmp_path, capsys):
    doc = _run_config(tmp_path, max_iters=30)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--seed", "9"]) == 0
    doc_out = json.loads((tmp_path / "out" / "run_result.json").read_text())
    assert doc_out["config"]["seed"] == 9


def test_run_missing_only_error_reported(tmp_path):
    doc = _run_config(tmp_path, max_iters=30, max_subareas=2,
                      missing_only_error=True)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config]) == 0
    doc_out = json.loads((tmp_path / "out" / "run_result.json").read_text())
    assert doc_out["missing_only_abs_error"] > 0.0


def test_run_writes_transcript_jsonl(tmp_path):
    doc = _run_config(tmp_path, max_iters=25)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--transcript"]) == 0
    lines = (tmp_path / "out" / "transcript.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert entries[0]["from"] == "organizer"
    assert {"chain_id", "from", "to", "payload_kind", "scalar_count"} == set(entries[0])


# --- sweep ---

def _sweep_config(tmp_path, **extra):
    doc = _run_config(tmp_path, max_iters=40)
    doc["sweep"] = {"axis": "m", "values": [4, 8], "seeds": [0, 1],
                    "methods": ["cswa", "meanfill"]}
    doc.update(extra)
    return doc


def test_sweep_csv_identical_across_invocations(tmp_path, capsys):
    config = _write_config(tmp_path, _sweep_config(tmp_path))
    assert main(["sweep", "--config", config]) == 0
    strip_wall = lambda text: [line.rsplit(",", 1)[0]
                               for line in text.strip().splitlines()]
    first = strip_wall((tmp_path / "out" / "sweep.csv").read_text())
    assert main(["sweep", "--config", config]) == 0
    second = strip_wall((tmp_path / "out" / "sweep.csv").read_text())
    # wall_ms is the only column allowed to differ between invocations
    assert first == second
    assert len(first) == 1 + 2 * 2 * 2


def test_sweep_prints_median_table(tmp_path, capsys):
    config = _write_config(tmp_path, _sweep_config(tmp_path))
    assert main(["sweep", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "median abs_error" in out
    assert "cswa" in out and "meanfill" in out


def test_sweep_empty_methods_rejected(tmp_path):
    doc = _sweep_config(tmp_path)
    doc["sweep"]["methods"] = []
    config = _write_config(tmp_path, doc)
    assert main(["sweep", "--config", config]) == 2


def test_sweep_requires_section(tmp_path):
    config = _write_config(tmp_path, _run_config(tmp_path))
    assert main(["sweep", "--config", config]) == 2


# --- audit ---

def test_audit_command_passes_good_run(tmp_path, capsys):
    doc = _run_config(tmp_path, max_iters=25)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--transcript"]) == 0
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "out" / "run_result.json")]) == 0
    assert "audit=pass" in capsys.readouterr().out
    assert main(["audit", str(tmp_path / "out" / "transcript.jsonl")]) == 0


def test_audit_command_fails_corrupted_transcript(tmp_path, capsys):
    doc = _run_config(tmp_path, max_iters=25)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--transcript"]) == 0
    path = tmp_path / "out" / "transcript.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    # forge an immediate back-transfer after the first participant hop
    hop = next(e for e in entries
               if e["from"] != "organizer" and e["to"] != "organizer")
    index = entries.index(hop)
    forged = dict(hop, **{"from": hop["to"], "to": hop["from"]})
    entries.insert(index + 1, forged)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    capsys.readouterr()
    assert main(["audit", str(path)]) == 4
    out = capsys.readouterr().out
    assert f"index={index + 1}" in out
    assert "back-transfer" in out


def _transcript(edit=None, index=1):
    """A clean three-record transcript, with record ``index`` replaced by
    ``edit(record)``."""
    records = [
        {"chain_id": 1, "from": "organizer", "to": 2,
         "payload_kind": "factors-only", "scalar_count": 26},
        {"chain_id": 1, "from": 2, "to": 5,
         "payload_kind": "factors-only", "scalar_count": 26},
        {"chain_id": 1, "from": 5, "to": "organizer",
         "payload_kind": "final-factors", "scalar_count": 26},
    ]
    if edit is not None:
        records[index] = edit(records[index])
    return records


def _without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("name, records, code, expected", [
    ("transcript.jsonl", _transcript(), 0, ["audit=pass"]),
    ("transcript.jsonl", _transcript(lambda r: [1, 2]), 2,
     ["record 1", "not a JSON object"]),
    ("transcript.jsonl", _transcript(_without("to")), 2, ["record 1", "'to'"]),
    ("transcript.jsonl", _transcript(_without("payload_kind")), 2,
     ["record 1", "'payload_kind'"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, chain_id="abc")), 2,
     ["record 1", "chain_id"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, chain_id=1.0)), 2,
     ["record 1", "chain_id"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, scalar_count=100.5)), 2,
     ["record 1", "scalar_count"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, scalar_count="100")), 2,
     ["record 1", "scalar_count"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, **{"from": True})), 2,
     ["record 1", "from"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, to=0)), 2,
     ["record 1", "to must be a participant id"]),
    ("transcript.jsonl", [], 2, ["no transcript records"]),
    ("run_result.json", [], 2, ["no transcript records"]),
    ("transcript.jsonl", b"\xff\xfe", 2, ["does not contain a transcript"]),
    ("transcript.jsonl", _transcript(lambda r: dict(r, readings=[0.5])), 4,
     ["index=1 rule=payload"]),
    ("run_result.json", _transcript(lambda r: dict(r, observations=[0.5])), 4,
     ["index=1 rule=payload"]),
], ids=["clean", "not-an-object", "missing-to", "missing-payload-kind",
        "chain-id-string", "chain-id-float", "scalar-count-fraction",
        "scalar-count-string", "from-bool", "to-zero", "empty-jsonl",
        "empty-run-result", "not-utf8", "extra-key-jsonl",
        "extra-key-run-result"])
def test_audit_command_checks_its_input(tmp_path, capsys, name, records, code,
                                        expected):
    path = tmp_path / name
    if isinstance(records, bytes):
        path.write_bytes(records)
    elif name.endswith(".jsonl"):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    else:
        path.write_text(json.dumps({"transcript": records}))
    assert main(["audit", str(path)]) == code
    captured = capsys.readouterr()
    for text in expected:
        assert text in captured.out + captured.err


def _inflated_run_result(p_bar, q_bar):
    """A run_result.json whose two records both claim a payload of a
    million scalars."""
    records = [
        {"chain_id": 1, "from": "organizer", "to": 1,
         "payload_kind": "factors-only", "scalar_count": 1000000},
        {"chain_id": 1, "from": 1, "to": "organizer",
         "payload_kind": "final-factors", "scalar_count": 1000000},
    ]
    return {"p_bar": p_bar, "q_bar": q_bar, "transcript": records}


def test_audit_checks_payload_against_run_factors(tmp_path, capsys):
    # the records agree with each other, but not with the 1x2 and 2x1
    # factors of the run: each payload must be 2 + 2 scalars
    path = tmp_path / "run_result.json"
    path.write_text(json.dumps(_inflated_run_result([[0.5, 1.0]],
                                                    [[2.0], [0.25]])))
    assert main(["audit", str(path)]) == 4
    out = capsys.readouterr().out
    assert "index=0 rule=payload" in out and "index=1 rule=payload" in out
    assert "factor size 4" in out


@pytest.mark.parametrize("p_bar, q_bar", [
    ([[0.5, 1.0], [2.0]], [[2.0], [0.25]]),
    ([[0.5, 1.0]], [2.0, 0.25]),
    ([[0.5, 1.0]], []),
    ([[0.5, 1.0]], None),
], ids=["ragged", "not-nested", "empty", "null"])
def test_audit_rejects_non_rectangular_factors(tmp_path, capsys, p_bar, q_bar):
    path = tmp_path / "run_result.json"
    path.write_text(json.dumps(_inflated_run_result(p_bar, q_bar)))
    assert main(["audit", str(path)]) == 2
    assert "is not a rectangular matrix" in capsys.readouterr().err


# --- config handling ---

def test_unknown_config_key_rejected(tmp_path):
    doc = _run_config(tmp_path, typo_key=3)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config]) == 2


def test_both_field_sources_rejected(tmp_path):
    doc = _run_config(tmp_path)
    doc["field_csv"] = "somewhere.csv"
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config]) == 2


_MALFORMED = {
    "flag-string": ("exclude_self", {"exclude_self": "false"}),
    "int-fraction": ("max_iters", {"max_iters": 2.7}),
    "int-bool": ("num_participants", {"num_participants": True,
                                      "batch_size": 1}),
    "one-participant": ("num_participants", {"num_participants": 1,
                                             "batch_size": 1}),
    "grad_tol-nan": ("grad_tol", {"grad_tol": float("nan")}),
    "reg_p-nan": ("reg_p", {"reg_p": float("nan")}),
    "step_size-inf": ("step_size", {"step_size": float("inf")}),
    "float-word": ("step_size", {"step_size": "abc"}),
    "float-string": ("noise_sigma", {"noise_sigma": "0.1"}),
    "synthetic-fraction": ("synthetic.num_subareas", {"synthetic": {
        "num_subareas": 8.9, "num_cycles": 30, "rank": 2}}),
    "end_cycle-fraction": ("end_cycle", {"end_cycle": 9.5}),
    "cli-flag-string": ("missing_only_error", {"missing_only_error": "yes"}),
    "sweep-seed-fraction": ("seeds", {"sweep": {
        "axis": "m", "values": [4], "seeds": [0.5], "methods": ["meanfill"]}}),
    "missing-window": ("window", {"window": None}),
    "sweep-seeds-scalar": ("sweep.seeds", {"sweep": {
        "axis": "m", "values": [4], "seeds": 3, "methods": ["meanfill"]}}),
    "sweep-values-string": ("sweep.values", {"sweep": {
        "axis": "m", "values": "48", "seeds": [0], "methods": ["meanfill"]}}),
    "sweep-methods-string": ("sweep.methods", {"sweep": {
        "axis": "m", "values": [4], "seeds": [0], "methods": "meanfill"}}),
    "sweep-axis-list": ("sweep.axis", {"sweep": {
        "axis": ["m"], "values": [4], "seeds": [0], "methods": ["meanfill"]}}),
    "sweep-unknown-key": ("workers", {"sweep": {
        "axis": "m", "values": [4], "seeds": [0], "methods": ["meanfill"],
        "workers": 2}}),
    "field_csv-int": ("field_csv", {"synthetic": None, "field_csv": 5}),
    "out-int": ("out", {"out": 5}),
    "unit-int": ("unit", {"unit": 5}),
}


@pytest.mark.parametrize("key, edit", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_config_value_rejected(tmp_path, capsys, key, edit):
    doc = _run_config(tmp_path, max_iters=5)
    doc.update(edit)
    doc = {k: v for k, v in doc.items() if v is not None}  # None drops a key
    command = "sweep" if "sweep" in doc else "run"
    assert main([command, "--config", _write_config(tmp_path, doc)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ({"values": [4, "x"]}, "sweep.values"),
    ({"values": []}, "sweep.values"),
    ({"seeds": [0, 0]}, "sweep.seeds"),
    ({"axis": "q"}, "sweep.axis"),
], ids=["value-string", "values-empty", "seeds-repeated", "axis-unknown"])
def test_run_rejects_malformed_sweep_section(tmp_path, capsys, section, key):
    # `cswa run` echoes the sweep section into its config, so it checks
    # the section as `cswa sweep` does before running
    doc = _run_config(tmp_path, max_iters=5)
    doc["sweep"] = dict({"axis": "m", "values": [4, 8], "seeds": [0],
                         "methods": ["meanfill"]}, **section)
    assert main(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_null_optional_keys_take_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = _run_config(tmp_path, max_iters=5, out=None, unit=None,
                      end_cycle=None)
    assert main(["run", "--config", _write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "run_result.json").is_file()


def test_malformed_config_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2


def test_divergence_exits_3(tmp_path, capsys):
    doc = _run_config(tmp_path, step_size=50.0, grad_tol=0.0,
                      max_iters=20000, literal_update=True)
    config = _write_config(tmp_path, doc)
    assert main(["run", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "chain" in err and "iteration" in err


# --- entry points ---

def test_module_entry_point(tmp_path):
    doc = _run_config(tmp_path, max_iters=20, out="out")
    _write_config(tmp_path, doc, "c.json")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cswa = lambda *args: subprocess.run(
        [sys.executable, "-m", "cswa", *args, "--config", "c.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    run = cswa("run", "--audit")
    assert run.returncode == 0, run.stderr
    assert "audit=pass" in run.stdout
    # the sweep has no worker count: it always runs one cell at a time
    sweep = cswa("sweep", "--workers", "2")
    assert sweep.returncode == 2
    assert "--workers" in sweep.stderr
