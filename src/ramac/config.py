"""INI configuration ingestion and record emission for the command line.

One scenario file declares everything a command needs: channels as row-major
decimal probability matrices, optional classes (member id lists), per-user
rate menus, input laws, the operation region (explicit pairs or "maximal"),
and command defaults. Decimal strings keep configs platform-stable; emitted
records print floats with 12 significant digits, which is idempotent under
re-ingestion, so a record file reloads to the identical in-memory value.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
import tempfile
from typing import Mapping, Optional, Sequence

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
from .errors import ConfigParseError, SchemaViolation
from .exponents import OptimizerConfig
from .regions import OperationRegion, maximal_feasible_region, require_c1
from .sim import ThresholdParams

CONFIG_DIR_ENV = "RAMAC_CONFIG_DIR"


@record
class Defaults:
    n: int = 100
    trials: int = 1000
    seed: int = 0
    output_dir: str = "."
    partition_user: int = 1
    partition_search: str = "exhaustive"


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
    law_default: str
    law_overrides: tuple  # ((user, rate idx), vector)
    region_pairs: Optional[tuple]  # (indices tuple, id) or None for maximal
    region_maximal: bool
    defaults: Defaults
    optimizer: OptimizerConfig
    thresholds: ThresholdParams


def _floats(text: str, where: str) -> list:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigParseError(f"{where}: {tok!r} is not a decimal number")
    return out


def _matrix(text: str, num_users: int, a: int, b: int, where: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    expect = a ** num_users
    if len(rows) != expect:
        raise SchemaViolation(f"{where}: expected {expect} rows, got {len(rows)}")
    data = []
    for i, row in enumerate(rows):
        vals = _floats(row, f"{where} row {i}")
        if len(vals) != b:
            raise SchemaViolation(
                f"{where} row {i}: expected {b} entries, got {len(vals)}")
        data.append(vals)
    return np.asarray(data).reshape((a,) * num_users + (b,))


def _getint(sec, key, default, where):
    if key not in sec:
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigParseError(f"{where}: {key} must be an integer")


def _getfloat(sec, key, default, where):
    if key not in sec:
        return default
    try:
        return float(sec[key])
    except ValueError:
        raise ConfigParseError(f"{where}: {key} must be a decimal number")


def _getbool(sec, key, default, where):
    if key not in sec:
        return default
    val = sec[key].strip().lower()
    if val in ("1", "yes", "true", "on"):
        return True
    if val in ("0", "no", "false", "off"):
        return False
    raise ConfigParseError(f"{where}: {key} must be a boolean")


def _parse_pair(token: str, num_users: int, num_classes: int, ids,
                where: str) -> tuple:
    if ":" not in token:
        raise ConfigParseError(f"{where}: pair {token!r} needs the form i1,..,iK:id")
    left, cid = token.rsplit(":", 1)
    parts = left.split(",")
    if len(parts) != num_users:
        raise SchemaViolation(
            f"{where}: pair {token!r} has {len(parts)} rate indices for "
            f"{num_users} users")
    try:
        indices = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigParseError(f"{where}: pair {token!r} has non-integer indices")
    for idx in indices:
        if not 1 <= idx <= num_classes:
            raise SchemaViolation(
                f"{where}: rate index {idx} outside 1..{num_classes}")
    if cid not in ids:
        raise SchemaViolation(f"{where}: undefined channel or class id {cid!r}")
    return indices, cid


def _check_keys(sec, known, where: str):
    """Reject a key the section does not define, such as a misspelt one."""
    for key in sec:
        if key not in known:
            raise SchemaViolation(f"{where}: unrecognized key {key!r}")


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
    raise ConfigParseError(f"config file not found: {path}")


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        with open(resolve_config_path(path)) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}")
    if "scenario" not in parser:
        raise SchemaViolation("missing [scenario] section")
    sc = parser["scenario"]
    _check_keys(sc, ("name", "mode", "users", "input_size", "output_size"),
                "[scenario]")
    name = sc.get("name", "scenario").strip()
    mode = sc.get("mode", "finite").strip()
    if mode not in ("finite", "class"):
        raise SchemaViolation(f"[scenario]: mode must be finite or class, got {mode!r}")
    num_users = _getint(sc, "users", 1, "[scenario]")
    input_size = _getint(sc, "input_size", None, "[scenario]")
    output_size = _getint(sc, "output_size", None, "[scenario]")
    if input_size is None or output_size is None:
        raise SchemaViolation("[scenario] needs input_size and output_size")

    channels = []
    classes = []
    for section in parser.sections():
        if section.startswith("channel "):
            cid = section[len("channel "):].strip()
            if not cid:
                raise SchemaViolation("channel section with empty id")
            if "rows" not in parser[section]:
                raise SchemaViolation(f"[{section}] needs a rows entry")
            probs = _matrix(parser[section]["rows"], num_users, input_size,
                            output_size, f"[{section}]")
            channels.append((cid, probs))
        elif section.startswith("class "):
            kid = section[len("class "):].strip()
            members = tuple(parser[section].get("members", "").split())
            if not members:
                raise SchemaViolation(f"[{section}] needs a members list")
            classes.append((kid, members))
    if not channels:
        raise SchemaViolation("no [channel <id>] sections defined")
    channel_ids = [cid for cid, _ in channels]
    if len(set(channel_ids)) != len(channel_ids):
        raise SchemaViolation("duplicate channel ids")
    for kid, members in classes:
        for m in members:
            if m not in channel_ids:
                raise SchemaViolation(f"[class {kid}]: undefined member {m!r}")
    if mode == "class" and not classes:
        raise SchemaViolation("class mode needs at least one [class <id>] section")

    if "rates" not in parser:
        raise SchemaViolation("missing [rates] section")
    _check_keys(parser["rates"], [f"user{u}" for u in range(1, num_users + 1)],
                "[rates]")
    rates = []
    for u in range(1, num_users + 1):
        key = f"user{u}"
        if key not in parser["rates"]:
            raise SchemaViolation(f"[rates] missing {key}")
        menu = _floats(parser["rates"][key], f"[rates] {key}")
        if not menu:
            raise SchemaViolation(f"[rates] {key} is empty")
        rates.append(tuple(menu))
    if len({len(m) for m in rates}) != 1:
        raise SchemaViolation("all users need rate menus of one common size")
    num_classes = len(rates[0])

    law_default = "uniform"
    overrides = []
    if "laws" in parser:
        law_default = parser["laws"].get("default", "uniform").strip()
        if law_default != "uniform":
            raise SchemaViolation(
                f"[laws]: default must be 'uniform', got {law_default!r}")
        for key, val in parser["laws"].items():
            if key == "default":
                continue
            if not (key.startswith("u") and "r" in key):
                raise SchemaViolation(f"[laws]: unrecognized key {key!r}")
            try:
                u_part, r_part = key[1:].split("r")
                u, r = int(u_part), int(r_part)
            except ValueError:
                raise ConfigParseError(f"[laws]: key {key!r} is not uNrM")
            if not (1 <= u <= num_users and 1 <= r <= num_classes):
                raise SchemaViolation(f"[laws]: key {key!r} out of range")
            vec = _floats(val, f"[laws] {key}")
            if len(vec) != input_size:
                raise SchemaViolation(
                    f"[laws] {key}: expected {input_size} entries")
            overrides.append(((u, r), tuple(vec)))

    region_ids = [kid for kid, _ in classes] if mode == "class" else channel_ids
    region_pairs = None
    region_maximal = False
    if "region" in parser:
        reg = parser["region"]
        _check_keys(reg, ("pairs", "maximal"), "[region]")
        region_maximal = _getbool(reg, "maximal", False, "[region]")
        if "pairs" in reg:
            if region_maximal:
                raise SchemaViolation("[region]: give pairs or maximal, not both")
            pairs = []
            for tok in reg["pairs"].split():
                pairs.append(_parse_pair(tok, num_users, num_classes,
                                         set(region_ids), "[region]"))
            if not pairs:
                raise SchemaViolation("[region]: pairs list is empty")
            region_pairs = tuple(pairs)
        elif not region_maximal:
            raise SchemaViolation("[region] needs pairs or maximal = yes")
    else:
        region_maximal = True

    d = parser["defaults"] if "defaults" in parser else {}
    where = "[defaults]"
    _check_keys(d, ("n", "trials", "seed", "output_dir", "partition_user",
                    "partition_search", "rho_grid", "s_grid",
                    "refinement_rounds", "refinement_shrink", "epsilon",
                    "objective_tolerance", "include_gallager_point",
                    "threshold_source", "rho_tilde", "s2"), where)
    defaults = Defaults(
        n=_getint(d, "n", 100, where),
        trials=_getint(d, "trials", 1000, where),
        seed=_getint(d, "seed", 0, where),
        output_dir=d.get("output_dir", "."),
        partition_user=_getint(d, "partition_user", 1, where),
        partition_search=d.get("partition_search", "exhaustive"),
    )
    if defaults.partition_search not in ("exhaustive", "greedy"):
        raise SchemaViolation(
            f"{where}: partition_search must be exhaustive or greedy")
    optimizer = OptimizerConfig(
        rho_grid_size=_getint(d, "rho_grid", 64, where),
        s_grid_size=_getint(d, "s_grid", 64, where),
        refinement_rounds=_getint(d, "refinement_rounds", 3, where),
        refinement_shrink=_getfloat(d, "refinement_shrink", 0.2, where),
        epsilon=_getfloat(d, "epsilon", 1e-6, where),
        objective_tolerance=_getfloat(d, "objective_tolerance", 1e-8, where),
        include_gallager_point=_getbool(d, "include_gallager_point", True, where),
    )
    source = d.get("threshold_source", "from_ei")
    rho_tilde = _getfloat(d, "rho_tilde", None, where)
    s2 = _getfloat(d, "s2", None, where)
    thresholds = ThresholdParams(rho_tilde=rho_tilde, s2=s2, source=source)

    return RunConfig(
        name=name, mode=mode, num_users=num_users, input_size=input_size,
        output_size=output_size, channels=tuple(channels),
        classes=tuple(classes), rates=tuple(rates), law_default=law_default,
        law_overrides=tuple(overrides), region_pairs=region_pairs,
        region_maximal=region_maximal, defaults=defaults, optimizer=optimizer,
        thresholds=thresholds,
    )


@record
class System:
    """Config materialized into library objects."""

    cfg: RunConfig
    table: RateTable
    laws: InputLaws
    compound: CompoundSet
    envelopes: tuple
    class_map: Optional[Mapping]
    region: OperationRegion
    region_ids: tuple


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
    envelopes = []
    class_map = None
    if cfg.classes:
        class_map = {kid: members for kid, members in cfg.classes}
        for kid, members in cfg.classes:
            envelopes.append(build_envelope(
                tuple(compound.by_id(m) for m in members), class_id=kid,
                member_ids=members))
    if cfg.region_maximal:
        region = maximal_feasible_region(compound, laws, table)
        if cfg.mode == "class":
            region = require_c1(region, class_map)
    else:
        members = tuple((RateVectorIndex(idx), cid)
                        for idx, cid in cfg.region_pairs)
        region = OperationRegion(members, cfg.mode)
    region_ids = (tuple(k for k, _ in cfg.classes) if cfg.mode == "class"
                  else compound.ids)
    return System(cfg=cfg, table=table, laws=laws, compound=compound,
                  envelopes=tuple(envelopes), class_map=class_map,
                  region=region, region_ids=region_ids)


def round12(x: float) -> float:
    """Float squashed to 12 significant digits; fixed point of itself."""
    if isinstance(x, float) and math.isfinite(x):
        return float(format(x, ".12g"))
    return x


def jsonable(obj):
    """Recursive conversion to JSON-serializable values with rounded floats."""
    if isinstance(obj, RateVectorIndex):
        return list(obj.indices)
    if isinstance(obj, OperationRegion):
        return {"mode": obj.mode,
                "members": [jsonable(m) for m in obj.members]}
    fields = getattr(type(obj), "_record_fields", None)
    if fields is not None:
        return {name: jsonable(getattr(obj, name)) for name in fields}
    if isinstance(obj, Mapping):
        return {_key_str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def _key_str(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, frozenset):
        return ",".join(str(v) for v in sorted(key))
    if isinstance(key, (tuple, list)):
        return ",".join(str(v) for v in key)
    return str(key)


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_record(path: str, record) -> dict:
    """Atomic JSON record dump; returns the serialized payload."""
    payload = jsonable(record)
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return payload


def read_record(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
