"""INI configuration ingestion and record emission for the command line.

One scenario file declares everything a command needs: channels as row-major
decimal probability matrices, optional classes (member id lists), per-user
rate menus, input laws, the operation region (explicit pairs; without a
[region] section, the maximal feasible one), and command defaults. Decimal
strings keep configs platform-stable; emitted records print floats with 12
significant digits, which is idempotent under re-ingestion, so a record file
reloads to the identical in-memory value.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
from typing import Optional, Sequence

import numpy as np

from ._record import record
from .channels import (
    CompoundSet,
    Dmc,
    InputLaws,
    RateTable,
    RateVectorIndex,
    build_envelope,
    validate_dmc,
)
from .errors import ValidationError
from .exponents import OptimizerConfig, ThresholdParams
from .regions import OperationRegion, maximal_feasible_region, require_c1

CONFIG_DIR_ENV = "RAMAC_CONFIG_DIR"


@record
class Defaults:
    n: int = 100
    trials: int = 1000
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("[defaults]: seed must be >= 0")
        if self.trials < 1:
            raise ValidationError("[defaults]: trials must be >= 1")


# [defaults] key -> (record class, field, value type), grouped by class in
# the order the classes are built. Each default lives in its record class.
DEFAULTS_SCHEMA = {
    "n": (Defaults, "n", int),
    "trials": (Defaults, "trials", int),
    "seed": (Defaults, "seed", int),
    "output_dir": (Defaults, "output_dir", str),
    "rho_grid": (OptimizerConfig, "rho_grid_size", int),
    "s_grid": (OptimizerConfig, "s_grid_size", int),
    "refinement_rounds": (OptimizerConfig, "refinement_rounds", int),
    "rho_tilde": (ThresholdParams, "rho_tilde", float),
    "s2": (ThresholdParams, "s2", float),
}


@record
class RunConfig:
    name: str
    mode: str
    num_users: int
    input_size: int
    output_size: int
    channels: tuple  # (id, probs array) in file order
    classes: tuple  # (class id, member id tuple) in file order
    rates: tuple  # per user, tuple of floats
    law_overrides: tuple  # ((user, rate idx), vector)
    region_pairs: Optional[tuple]  # (indices tuple, id) or None for maximal
    defaults: Defaults
    optimizer: OptimizerConfig
    thresholds: ThresholdParams


def _floats(text: str, where: str) -> list:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ValidationError(f"{where}: {tok!r} is not a decimal number")
    return out


def _matrix(text: str, num_users: int, a: int, b: int, where: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    expect = a ** num_users
    if len(rows) != expect:
        raise ValidationError(f"{where}: expected {expect} rows, got {len(rows)}")
    data = []
    for i, row in enumerate(rows):
        vals = _floats(row, f"{where} row {i}")
        if len(vals) != b:
            raise ValidationError(
                f"{where} row {i}: expected {b} entries, got {len(vals)}")
        data.append(vals)
    return np.asarray(data).reshape((a,) * num_users + (b,))


_TYPE_NAMES = {int: "an integer", float: "a decimal number"}


def _get(sec, key, kind, where, default=None):
    """sec[key] read as kind (int, float or str), default if absent."""
    if key not in sec:
        return default
    try:
        return kind(sec[key])
    except ValueError:
        raise ValidationError(f"{where}: {key} must be {_TYPE_NAMES[kind]}")


def _parse_pair(token: str, num_users: int, num_classes: int, ids,
                where: str) -> tuple:
    if ":" not in token:
        raise ValidationError(f"{where}: pair {token!r} needs the form i1,..,iK:id")
    left, cid = token.rsplit(":", 1)
    parts = left.split(",")
    if len(parts) != num_users:
        raise ValidationError(
            f"{where}: pair {token!r} has {len(parts)} rate indices for "
            f"{num_users} users")
    try:
        indices = tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{where}: pair {token!r} has non-integer indices")
    for idx in indices:
        if not 1 <= idx <= num_classes:
            raise ValidationError(
                f"{where}: rate index {idx} outside 1..{num_classes}")
    if cid not in ids:
        raise ValidationError(f"{where}: undefined channel or class id {cid!r}")
    return indices, cid


def _check_keys(sec, known, where: str):
    """Reject a key the section does not define, such as a misspelt one."""
    for key in sec:
        if key not in known:
            raise ValidationError(f"{where}: unrecognized key {key!r}")


def resolve_config_path(path: str) -> str:
    """The given path, else the same name under $RAMAC_CONFIG_DIR."""
    if os.path.exists(path):
        return path
    if not os.path.isabs(path):
        base = os.environ.get(CONFIG_DIR_ENV)
        if base:
            candidate = os.path.join(base, path)
            if os.path.exists(candidate):
                return candidate
    raise ValidationError(f"config file not found: {path}")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        with open(resolve_config_path(path)) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}")
    if parser.defaults():  # configparser copies these keys into every section
        raise ValidationError("[DEFAULT]: unrecognized section (defaults go "
                              "in [defaults])")
    if "scenario" not in parser:
        raise ValidationError("missing [scenario] section")
    sc = parser["scenario"]
    _check_keys(sc, ("name", "mode", "users", "input_size", "output_size"),
                "[scenario]")
    name = sc.get("name", "scenario").strip()
    # the name is the stem of every record file, so it must not leave --out-dir
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValidationError(f"[scenario]: name {name!r} must be a plain file name")
    mode = sc.get("mode", "finite").strip()
    if mode not in ("finite", "class"):
        raise ValidationError(f"[scenario]: mode must be finite or class, got {mode!r}")
    num_users = _get(sc, "users", int, "[scenario]", 1)
    input_size = _get(sc, "input_size", int, "[scenario]")
    output_size = _get(sc, "output_size", int, "[scenario]")
    if input_size is None or output_size is None:
        raise ValidationError("[scenario] needs input_size and output_size")

    channels = []
    classes = []
    for section in parser.sections():
        if section.startswith("channel "):
            cid = section[len("channel "):].strip()
            if not cid:
                raise ValidationError("channel section with empty id")
            _check_keys(parser[section], ("rows",), f"[{section}]")
            if "rows" not in parser[section]:
                raise ValidationError(f"[{section}] needs a rows entry")
            probs = _matrix(parser[section]["rows"], num_users, input_size,
                            output_size, f"[{section}]")
            channels.append((cid, probs))
        elif section.startswith("class "):
            kid = section[len("class "):].strip()
            _check_keys(parser[section], ("members",), f"[{section}]")
            members = tuple(parser[section].get("members", "").split())
            if not members:
                raise ValidationError(f"[{section}] needs a members list")
            classes.append((kid, members))
        elif section not in ("scenario", "rates", "laws", "region", "defaults"):
            raise ValidationError(f"unrecognized section [{section}]")
    if not channels:
        raise ValidationError("no [channel <id>] sections defined")
    channel_ids = [cid for cid, _ in channels]
    if len(set(channel_ids)) != len(channel_ids):
        raise ValidationError("duplicate channel ids")
    owner = {}
    for kid, members in classes:
        for m in members:
            if m not in channel_ids:
                raise ValidationError(f"[class {kid}]: undefined member {m!r}")
            if owner.setdefault(m, kid) != kid:
                raise ValidationError(
                    f"[class {kid}]: channel id {m!r} appears in two classes")
    if mode == "class" and not classes:
        raise ValidationError("class mode needs at least one [class <id>] section")

    if "rates" not in parser:
        raise ValidationError("missing [rates] section")
    _check_keys(parser["rates"], [f"user{u}" for u in range(1, num_users + 1)],
                "[rates]")
    rates = []
    for u in range(1, num_users + 1):
        key = f"user{u}"
        if key not in parser["rates"]:
            raise ValidationError(f"[rates] missing {key}")
        menu = _floats(parser["rates"][key], f"[rates] {key}")
        if not menu:
            raise ValidationError(f"[rates] {key} is empty")
        rates.append(tuple(menu))
    if len({len(m) for m in rates}) != 1:
        raise ValidationError("all users need rate menus of one common size")
    num_classes = len(rates[0])

    overrides = []
    if "laws" in parser:
        for key, val in parser["laws"].items():
            if not (key.startswith("u") and "r" in key):
                raise ValidationError(f"[laws]: unrecognized key {key!r}")
            try:
                u_part, r_part = key[1:].split("r")
                u, r = int(u_part), int(r_part)
            except ValueError:
                raise ValidationError(f"[laws]: key {key!r} is not uNrM")
            if not (1 <= u <= num_users and 1 <= r <= num_classes):
                raise ValidationError(f"[laws]: key {key!r} out of range")
            vec = _floats(val, f"[laws] {key}")
            if len(vec) != input_size:
                raise ValidationError(
                    f"[laws] {key}: expected {input_size} entries")
            overrides.append(((u, r), tuple(vec)))

    region_ids = [kid for kid, _ in classes] if mode == "class" else channel_ids
    region_pairs = None
    if "region" in parser:
        reg = parser["region"]
        _check_keys(reg, ("pairs",), "[region]")
        region_pairs = tuple(_parse_pair(tok, num_users, num_classes,
                                         set(region_ids), "[region]")
                             for tok in reg.get("pairs", "").split())
        if not region_pairs:
            raise ValidationError("[region] needs a pairs list (omit the "
                                  "section for the maximal region)")

    d = parser["defaults"] if "defaults" in parser else {}
    _check_keys(d, DEFAULTS_SCHEMA, "[defaults]")
    built = {}
    for cls in (Defaults, OptimizerConfig, ThresholdParams):
        built[cls] = cls(**{field: _get(d, key, kind, "[defaults]")
                            for key, (owner, field, kind) in DEFAULTS_SCHEMA.items()
                            if owner is cls and key in d})

    return RunConfig(
        name=name, mode=mode, num_users=num_users, input_size=input_size,
        output_size=output_size, channels=tuple(channels),
        classes=tuple(classes), rates=tuple(rates),
        law_overrides=tuple(overrides), region_pairs=region_pairs,
        defaults=built[Defaults],
        optimizer=built[OptimizerConfig], thresholds=built[ThresholdParams],
    )


@record
class System:
    """Config materialized into library objects. channels is what the
    region's ids name: the compound set, or in class mode the envelopes,
    which hold class membership (one per [class] section, in either mode)."""

    cfg: RunConfig
    table: RateTable
    laws: InputLaws
    compound: CompoundSet
    envelopes: tuple
    region: OperationRegion
    channels: object


def build_system(cfg: RunConfig) -> System:
    table = RateTable(cfg.rates)
    entries = {}
    for u in range(1, cfg.num_users + 1):
        for r in range(1, table.num_classes + 1):
            entries[(u, r)] = np.full(cfg.input_size, 1.0 / cfg.input_size)
    for (u, r), vec in cfg.law_overrides:
        entries[(u, r)] = np.asarray(vec)
    laws = InputLaws(entries)
    dmcs = tuple(
        validate_dmc(probs, cfg.num_users, cfg.input_size, cfg.output_size)
        for _, probs in cfg.channels)
    compound = CompoundSet(dmcs, tuple(cid for cid, _ in cfg.channels))
    envelopes = tuple(build_envelope(tuple(compound.by_id(m) for m in members),
                                     class_id=kid, member_ids=members)
                      for kid, members in cfg.classes)
    if cfg.region_pairs is None:
        region = maximal_feasible_region(compound, laws, table)
        if cfg.mode == "class":
            region = require_c1(region, envelopes)
    else:
        members = tuple((RateVectorIndex(idx), cid)
                        for idx, cid in cfg.region_pairs)
        region = OperationRegion(members, cfg.mode)
    return System(cfg=cfg, table=table, laws=laws, compound=compound,
                  envelopes=envelopes, region=region,
                  channels=envelopes if cfg.mode == "class" else compound)


def round12(x: float) -> float:
    """Float squashed to 12 significant digits; fixed point of itself."""
    if isinstance(x, float) and math.isfinite(x):
        return float(format(x, ".12g"))
    return x


def jsonable(obj):
    """Recursive conversion of a record to JSON-serializable values with
    rounded floats; a value of any other type raises TypeError.

    Leaves come first, floats (np.float64 among them) before the rest, since
    a record is mostly leaves."""
    if isinstance(obj, float):
        return round12(obj)
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if isinstance(obj, RateVectorIndex):
        return list(obj.indices)
    if isinstance(obj, OperationRegion):
        return {"mode": obj.mode,
                "members": [jsonable(m) for m in obj.members]}
    fields = getattr(type(obj), "_record_fields", None)
    if fields is not None:
        return {name: jsonable(getattr(obj, name)) for name in fields}
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"a record cannot hold a {type(obj).__name__}")


def _atomic_write(path: str, data: str):
    """data written to a fresh file next to path, then moved onto path; the
    file gets the permissions open() gives a new file under the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}~")
    fh = open(tmp, "x")  # fails, instead of truncating, on a taken name
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_record(path: str, record) -> dict:
    """Atomic JSON record dump; returns the serialized payload."""
    payload = jsonable(record)
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return payload


def _cell(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".12g")
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return "|".join(_cell(x) for x in v)
    return str(v)


def write_table(path: str, header: Sequence[str], rows: Sequence[Sequence]):
    """Atomic flat comma-separated table with 12-significant-digit floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())
