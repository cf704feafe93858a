"""Command-line entry point: ``generate``, ``run``, ``sweep``, ``audit``.

Configuration is a single flat JSON document plus command-line overrides
(flag > config file > default). Its keys, defaults and types are the
fields of :class:`cswa.model.Hyperparams` and those of :class:`RunConfig`
after ``params``. All randomness flows from the one seed via named
sub-streams, so every artifact embeds enough (its config echo, itself a
valid config) to be reproduced bit-for-bit.

Exit codes: 0 success, 2 usage/config error, 3 numeric divergence,
4 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .datagen import assign_coverage, generate_lowrank_field, load_field_csv, \
    write_field_csv
from .errors import CswaError, NumericError, ParameterError, ParseError
from .evaluation import SweepSpec, absolute_error, build_inputs, \
    median_errors, records_to_csv, run_sweep
from .model import Field, Hyperparams, check_type
from .protocol import ORGANIZER, RECORD_KEYS, audit_transcript, run_simulation
from .rng import substream


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one command invocation. Each field after
    ``params`` is one of the CLI's own config keys, with its default; the
    first type of its annotation is the key's :func:`check_type` kind."""

    params: Hyperparams
    synthetic: dict | None = None    # {"num_subareas", "num_cycles", "rank"}
    field_csv: str | None = None
    end_cycle: int | None = None
    out: str = "."
    unit: str = ""
    missing_only_error: bool = False
    sweep: dict | None = None        # {"axis", "values", "seeds", "methods"}

    def __post_init__(self):
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None:
                check_type(f.name, getattr(self, f.name), f.type.split(" | ")[0])
        # echoed as a normalized path: "out/" and "./out" echo "out"
        object.__setattr__(self, "out", str(Path(self.out)))

    def out_dir(self) -> Path:
        """The output directory, made if absent."""
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def echo(self) -> dict:
        """The whole config as JSON, itself a valid config."""
        return dict(self.params.to_dict(),
                    **{f.name: getattr(self, f.name) for f in fields(self)[1:]})


# every config key: the run parameters, then the CLI's own
_SCHEMA = fields(Hyperparams) + fields(RunConfig)[1:]


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ParameterError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ParseError(f"config {path} must be a JSON object")
    return doc


def build_config(doc: dict, overrides: dict) -> RunConfig:
    """Merge a config document and CLI overrides (highest wins; a None
    override is not given). The keys, defaults and kinds are the fields of
    Hyperparams and RunConfig; null for a RunConfig key means its default."""
    merged = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    unknown = sorted(set(merged) - {f.name for f in _SCHEMA})
    if unknown:
        raise ParameterError(f"unknown config keys: {unknown}")
    missing = [f.name for f in fields(Hyperparams)
               if f.default is MISSING and f.name not in merged]
    if missing:
        raise ParameterError(f"missing config keys: {missing}")
    params = Hyperparams(**{f.name: merged[f.name] for f in fields(Hyperparams)
                            if f.name in merged})
    config = RunConfig(params, **{f.name: merged[f.name]
                                  for f in fields(RunConfig)[1:]
                                  if merged.get(f.name) is not None})

    synthetic = config.synthetic
    if (synthetic is None) == (config.field_csv is None):
        raise ParameterError(
            "exactly one field source required: 'synthetic' "
            "{num_subareas,num_cycles,rank} or 'field_csv'")
    if synthetic is not None:
        required = {"num_subareas", "num_cycles", "rank"}
        if set(synthetic) != required:
            raise ParameterError(
                f"synthetic spec must have exactly the keys {sorted(required)}")
        for key, value in synthetic.items():
            check_type(f"synthetic.{key}", value, "int")
        # known dimensions: fail before any field is built
        params.check_against(synthetic["num_subareas"])
    return config


def _build_field(config: RunConfig) -> Field:
    if config.synthetic is not None:
        spec = config.synthetic
        return generate_lowrank_field(spec["num_subareas"], spec["num_cycles"],
                                      spec["rank"], config.params.seed)
    return load_field_csv(config.field_csv, unit=config.unit)


def _dump_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_generate(config: RunConfig) -> int:
    if config.synthetic is None:
        raise ParameterError("generate requires a 'synthetic' field spec")
    out = config.out_dir()
    field = _build_field(config)
    field_path = out / "field.csv"
    write_field_csv(field, field_path)

    params = config.params
    schedule = assign_coverage(params, field.num_subareas,
                               substream(params.seed, "coverage"))
    schedule_path = out / "schedule.json"
    _dump_json({"config": config.echo(), "schedule": schedule.to_jsonable()},
               schedule_path)
    print(f"wrote {field_path} and {schedule_path}")
    return 0


def cmd_run(config: RunConfig, audit: bool = False,
            transcript_jsonl: bool = False) -> int:
    window, schedule, all_obs = build_inputs(_build_field(config),
                                             config.params, config.end_cycle)
    result = run_simulation(all_obs, config.params)
    err = absolute_error(result.recovered, window)

    extra = {"config": config.echo(), "abs_error": err}
    if config.missing_only_error:
        uncovered = schedule.union_mask() == 0.0
        extra["missing_only_abs_error"] = (
            absolute_error(result.recovered, window, where=uncovered)
            if uncovered.any() else None)

    out = config.out_dir()
    (out / "run_result.json").write_text(result.to_json(**extra) + "\n")
    # a record per hop: built only when one is written or audited
    transcript = result.transcript if audit or transcript_jsonl else None
    if transcript_jsonl:
        lines = "".join(json.dumps(record, sort_keys=True) + "\n"
                        for record in transcript)
        (out / "transcript.jsonl").write_text(lines)

    print(f"abs_error={err!r} "
          f"chains_converged={result.converged_chains}/{config.params.batch_size} "
          f"scalars={result.scalars_transferred()}")
    if not audit:
        return 0
    return cmd_audit(transcript, result.p_bar.size + result.q_bar.size)


def cmd_sweep(config: RunConfig) -> int:
    if config.sweep is None:
        raise ParameterError("sweep requires a 'sweep' config section "
                             "{axis, values, seeds, methods}")
    section = config.sweep
    required = {f.name for f in fields(SweepSpec)[1:]}
    if set(section) != required:
        raise ParameterError(f"sweep section must have exactly the keys "
                             f"{sorted(required)}, got {section!r}")
    spec = SweepSpec(base=config.params, **section)
    field = _build_field(config)
    records = run_sweep(spec, field, end_cycle=config.end_cycle)

    out = config.out_dir()
    csv_path = out / "sweep.csv"
    csv_path.write_text(records_to_csv(records))
    _dump_json({"config": config.echo(),
                "records": [r.to_jsonable() for r in records]},
               out / "sweep.json")

    medians = median_errors(records)
    print(f"axis={spec.axis}  median abs_error by value and method")
    header = "value".ljust(10) + "".join(m.rjust(14) for m in spec.methods)
    print(header)
    for value in spec.values:
        row = str(value).ljust(10)
        for method in spec.methods:
            row += f"{medians[(value, method)]:14.6f}"
        print(row)
    print(f"wrote {csv_path}")
    return 0


def _matrix_size(doc: dict, key: str, path: Path) -> int:
    """Entries of the rectangular matrix ``doc[key]`` (a list of equally
    long lists)."""
    rows = doc.get(key)
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) for row in rows)
            or len({len(row) for row in rows}) != 1):
        raise ParseError(f"{path}: {key} is not a rectangular matrix")
    return len(rows) * len(rows[0])


def _read_transcript(path: Path) -> tuple[list[dict], int | None]:
    """The checked records of a ``run_result.json`` or ``transcript.jsonl``,
    and the factor size each record's payload must have: ``p_bar.size +
    q_bar.size`` of a run result, None (the first record's size) when the
    document holds no factors. A key beyond the five is left for the audit
    to flag."""
    payload = None
    try:
        text = path.read_text()
        if path.suffix == ".jsonl":
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
        else:
            doc = json.loads(text)
            records = doc["transcript"] if isinstance(doc, dict) else doc
            if isinstance(doc, dict) and ("p_bar" in doc or "q_bar" in doc):
                payload = (_matrix_size(doc, "p_bar", path)
                           + _matrix_size(doc, "q_bar", path))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as err:
        raise ParseError(f"{path} does not contain a transcript: {err}") from err
    if not isinstance(records, list) or not records:
        raise ParseError(f"{path} holds no transcript records")
    for index, record in enumerate(records):
        where = f"{path}: transcript record {index}"
        if not isinstance(record, dict):
            raise ParseError(f"{where} is not a JSON object: {record!r}")
        missing = [key for key in RECORD_KEYS if key not in record]
        if missing:
            raise ParseError(f"{where} lacks the keys {missing}")
        try:
            for key in ("chain_id", "scalar_count"):
                check_type(f"{where}: {key}", record[key], "int")
        except ParameterError as err:
            raise ParseError(str(err)) from None
        for key in ("from", "to"):
            if record[key] != ORGANIZER and not (
                    type(record[key]) is int and record[key] >= 1):
                raise ParseError(f"{where}: {key} must be a participant id "
                                 f">= 1 or {ORGANIZER!r}, got {record[key]!r}")
    return records, payload


def cmd_audit(transcript: list[dict],
              expected_payload: int | None = None) -> int:
    report = audit_transcript(transcript, expected_payload)
    for v in report.violations:
        print(f"audit=fail index={v.index} rule={v.rule} detail={v.detail}")
    if report.passed:
        print("audit=pass")
    return 0 if report.passed else 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswa",
        description="Aggregation-free community sensing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")

    common(sub.add_parser("generate",
                          help="write a synthetic field CSV and schedule"))

    run = sub.add_parser("run", help="one full decentralized recovery run")
    common(run)
    run.add_argument("--end-cycle", type=int,
                     help="last cycle of the recovered window (default: latest)")
    run.add_argument("--audit", action="store_true",
                     help="audit the transcript after the run")
    run.add_argument("--transcript", action="store_true",
                     help="also write transcript.jsonl")

    common(sub.add_parser("sweep", help="factor sweep over methods and seeds"))

    audit = sub.add_parser("audit", help="audit a stored run or transcript")
    audit.add_argument("input", help="run_result.json or transcript.jsonl")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "audit":
            return cmd_audit(*_read_transcript(Path(args.input)))
        doc = _load_json(args.config) if args.config else {}
        config = build_config(doc, {f.name: getattr(args, f.name, None)
                                    for f in _SCHEMA})
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "run":
            return cmd_run(config, audit=args.audit,
                           transcript_jsonl=args.transcript)
        if args.command == "sweep":
            return cmd_sweep(config)
        raise ParameterError(f"unknown command {args.command!r}")
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CswaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
