"""Command line interface.

Commands
--------
check     decide invariance of a stratum ideal (or print the conditions)
restrict  project the weighted root lines onto a stratum and render the
          induced radial and potential operators
verify    run a verification suite: commutativity | gauge | restriction |
          deformed | catalog
catalog   recompute the full classification table
solve     solve the invariance conditions for the multiplicities

Everything is exact; JSON output is deterministic (sorted keys).  Exit
codes: 0 success or invariant, 1 definitive negative, 2 usage error,
3 infeasible (a stratum with no invariant weights), 4 internal failure
(stderr carries {"error": ..., "internal": true}).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import traceback
from fractions import Fraction

from .fields import render_scalar
from .polynomials import render_polynomial
from .rootsystems import (
    Multiplicities,
    Stratum,
    block_stratum,
    enumerate_parabolic_strata,
    parabolic_classes,
    parabolic_stratum,
    root_system,
    type_name_from_counts,
)
from .dunkl import DeformedContext, DunklContext
from .invariance import (
    condition_equations,
    conditions_hold,
    criterion_invariant,
    direct_invariance_violations,
    solve_multiplicities,
)
from .restriction import (
    catalog_compare,
    catalog_row_result,
    conservation_defect,
    deformed_restriction_constant,
    gauge_defects,
    restricted_configuration,
    restriction_defects,
    _load_catalog_rows,
)
from .complexgroups import (
    CollisionFlat,
    ComplexDunklContext,
    direct_ideal_violations,
    parse_group_name,
    weight_point,
)


class UsageError(ValueError):
    pass


def _from_user(make, *args):
    """make(*args) on command-line input, whose ValueError is a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# subgraph spec grammar
#
#   ""                     the whole space (identity restriction)
#   "verts:1,3,4"          explicit 1-based simple root indices
#   "A2", "A1^3", "A1*A2", "A1A1", "D4", "I2(5)" ...
#                          parabolic type; first matching subset of simple
#                          roots in (size, lex) order
#   "A1^3:2"               second orbit class of that type, discovery order
#   "A1^2:k=2,m=2"         family A block stratum: m blocks of k coordinates
#   "Bl:l=2"               family B: l zero coordinates (blocks via k=,m=)
#   "Dp:p=3"               family D: p >= 2 zero coordinates
#   "D2^2:k=2,m=2,eps=-1"  family D sign-twisted last block


_ATOM_RE = re.compile(r"(I2\(\d+\)|[A-Z]\d+)(?:\^(\d+))?")


def _parse_type_expr(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    pos = 0
    while pos < len(text):
        if text[pos] in "* ":
            pos += 1
            continue
        match = _ATOM_RE.match(text, pos)
        if not match:
            raise UsageError(f"cannot parse subgraph type {text!r} at {text[pos:]!r}")
        name = match.group(1)
        counts[name] = counts.get(name, 0) + int(match.group(2) or 1)
        pos = match.end()
    if not counts:
        raise UsageError(f"empty subgraph type in {text!r}")
    return counts


def _atom_rank(name: str) -> int:
    if name.startswith("I2"):
        return 2
    return int(name[1:])


_BLOCK_KEYS = ("k", "m", "l", "p", "eps")


def _parse_opts(text: str) -> dict:
    """The options after ':': block keys k, m, l, p, eps, or one positive variant."""
    opts: dict = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, val = token.partition("=")
            key = key.strip()
            if key not in _BLOCK_KEYS:
                raise UsageError(f"unknown subgraph option {token!r}; expected one of {', '.join(_BLOCK_KEYS)}")
        else:
            key, val = "variant", token
        if key in opts:
            raise UsageError(f"repeated subgraph option {token!r}")
        if opts and "variant" in (key, *opts):
            raise UsageError(f"subgraph option {token!r}: a variant takes no block keys")
        try:
            opts[key] = int(val)
        except ValueError:
            raise UsageError(f"subgraph option {token!r} needs an integer") from None
        if key == "variant" and opts[key] < 1:
            raise UsageError(f"subgraph variant {token!r} must be a positive integer")
    return opts


def resolve_subgraph(rs, text: str) -> Stratum:
    text = (text or "").strip()
    if not text:
        return parabolic_stratum(rs, ())
    if text.startswith("verts:"):
        verts = []
        for token in filter(None, (t.strip() for t in text[len("verts:"):].split(","))):
            try:
                verts.append(int(token))
            except ValueError:
                raise UsageError(f"subgraph {text!r}: vertex {token!r} is not an integer") from None
        if not verts or min(verts) < 1 or max(verts) > rs.rank:
            raise UsageError(f"vertex list out of range 1..{rs.rank}: {text!r}")
        repeated = next((v for i, v in enumerate(verts) if v in verts[:i]), None)
        if repeated is not None:
            raise UsageError(f"subgraph {text!r}: vertex {repeated} is repeated")
        return parabolic_stratum(rs, [v - 1 for v in verts])
    head, _, opts_text = text.partition(":")
    head = head.strip()
    opts = _parse_opts(opts_text)
    if head in ("Bl", "Dp") or set(_BLOCK_KEYS) & set(opts):
        if head not in ("Bl", "Dp"):
            _parse_type_expr(head)  # the head only names the blocks' type, but it must parse
        m = opts.get("m", 0)
        k = opts.get("k", 1)
        l = opts.get("l", opts.get("p", 0))
        eps = opts.get("eps", 1)
        if head == "Bl" and rs.family != "B":
            raise UsageError("Bl strata live in family B")
        if head == "Dp" and rs.family != "D":
            raise UsageError("Dp strata live in family D")
        if (head in ("Bl", "Dp")) and not l:
            raise UsageError(f"{head} needs l= (or p=) zero coordinates")
        return block_stratum(rs, m, k, l=l, eps=eps)
    counts = _parse_type_expr(head)
    canonical = type_name_from_counts(counts)
    size = sum(_atom_rank(name) * n for name, n in counts.items())
    if size > rs.rank:
        raise UsageError(f"type {canonical} needs {size} vertices; rank is {rs.rank}")
    variant = opts.get("variant", 1)
    found = 0
    for found, st in enumerate(parabolic_classes(rs, size, label=canonical), 1):
        if found == variant:
            if variant > 1:
                st.label = f"{canonical}:{variant}"
            return st
    if variant > 1:
        raise UsageError(f"type {canonical} has only {found} orbit classes; asked for {variant}")
    raise UsageError(f"no parabolic subgraph of type {canonical} in {rs.name}")


# ---------------------------------------------------------------------------
# shared plumbing


def _weight_literal(name: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"weight {name} must be a rational number, got {text!r}") from None


_WEIGHT_FLAGS = ("c", "c1", "c2", "c0", "c0_odd", "mult")


def _collect_mult_values(args) -> dict[str, Fraction]:
    """The weights of the weight flags and of every --mult name=value; a weight given twice is an error."""
    vals: dict[str, Fraction] = {}

    def put(name: str, text: str) -> None:
        if name in vals:
            raise UsageError(f"weight {name} is given more than once")
        vals[name] = _weight_literal(name, text)

    for name in ("c", "c1", "c2", "c0", "c0_odd"):
        for text in getattr(args, name, None) or []:
            put(name, text)
    for item in getattr(args, "mult", None) or []:
        name, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--mult expects name=value, got {item!r}")
        put(name.strip(), val)
    return vals


def _root_system(args):
    """The root system named by --family and --rank."""
    if not args.family:
        raise UsageError(f"{args.command} needs --family")
    return _from_user(root_system, args.family, args.rank)


def _stratum(rs, args) -> Stratum:
    """The stratum named by --subgraph."""
    return _from_user(resolve_subgraph, rs, args.subgraph)


def _instantiate_solution(st, offset: int = 0, rng=None) -> Multiplicities:
    """A numeric point on the stratum's invariance locus, which must not be empty.

    The free weights are drawn from rng, else (2i+1)/(2i+5) from i = offset
    on; the solved ones are evaluated exactly there.
    """
    rs = st.rs
    field = rs.field
    names = rs.orbit_names
    _, values, free = st.solution
    sample = _random_sample(rng, free) if rng else {
        name: Fraction(2 * (i + offset) + 1, 2 * (i + offset) + 5) for i, name in enumerate(free)}
    vals = {name: field.element(v) for name, v in sample.items()}
    point = tuple(vals.get(n, field.zero()) for n in names)
    vals.update((name, h.evaluate(point)) for name, h in values.items())
    return Multiplicities.numeric(rs, vals)


def _add_floats(obj):
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            out[key] = _add_floats(val)
            if isinstance(val, str):
                approx = _approx(val)
                if approx is not None:
                    out[f"{key}~float"] = approx
        return out
    if isinstance(obj, list):
        return [_add_floats(v) for v in obj]
    return obj


def _approx(text: str):
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return None


def _reject_ignored(args, reads, what: str) -> None:
    """A usage error naming every option given that is neither in reads nor common to all commands."""
    reads = {*reads, "command", "suite", "func", *_common_options()}
    # an option not given is None, "" for --subgraph, or False for a switch
    ignored = [
        f"--{name.replace('_', '-')}"
        for name, value in vars(args).items()
        if name not in reads and value not in (None, "") and value is not False
    ]
    if ignored:
        raise UsageError(f"{what} does not use {', '.join(ignored)}")


# the keys of a catalog row that catalog and verify catalog read
_CATALOG_KEYS = ("index", "family", "type", "gamma0")
_VERIFY_CATALOG_KEYS = _CATALOG_KEYS + ("dim", "size", "mults")


def _golden_results(path: str | None, keys: tuple[str, ...], result) -> list:
    """result(row) for each catalog row of --golden, else of the shipped ones.

    Each row of --golden must hold keys and name, by distinct integer
    vertices, a stratum of its type that pins the weight c; a row that does
    not, or whose result raises ValueError, is a usage error naming the row.
    """
    if path is None:
        return [result(row) for row in _load_catalog_rows()]
    try:
        rows = _load_catalog_rows(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read catalog rows from {path!r}: {exc}") from None
    if not isinstance(rows, list):
        raise UsageError(f"catalog rows in {path!r} must be a list")
    out = []
    for pos, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise UsageError(f"catalog row #{pos} in {path!r} is not an object")
        where = f"catalog row {row.get('index', f'#{pos}')} in {path!r}"
        missing = [key for key in keys if key not in row]
        if missing:
            raise UsageError(f"{where} lacks {', '.join(missing)}")
        gamma0 = row["gamma0"]
        if not isinstance(row["family"], str) or not (
            isinstance(gamma0, list) and all(type(i) is int for i in gamma0)  # a bool is no vertex
        ):
            raise UsageError(f"{where}: family must be a name and gamma0 a list of vertex numbers")
        try:
            out.append(result(row))
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    return out


def _emit(args, payload: dict, pretty_lines=None) -> None:
    if getattr(args, "float", False):
        payload = _add_floats(payload)
    if getattr(args, "pretty", False) and pretty_lines is not None:
        text = "\n".join(pretty_lines)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; later writes, the flush at exit included, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _stratum_summary(st) -> dict:
    return {"family": st.rs.family, "rank": st.rs.rank, "label": st.label, "gamma0": [i + 1 for i in st.gamma0]}


def _random_sample(rng, names) -> dict[str, Fraction]:
    return {name: Fraction(rng.randint(1, 9), rng.randint(2, 9)) for name in names}


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    reads = (*_WEIGHT_FLAGS, "symbolic", "direct", "seed")
    if args.symbolic:
        ignored = [
            f"--{name.replace('_', '-')}"
            for name in (*_WEIGHT_FLAGS, "direct")
            if getattr(args, name) not in (None, False)
        ]
        if ignored:
            raise UsageError(f"--symbolic takes no weights and no --direct; got {', '.join(ignored)}")
        return cmd_solve(args, reads)
    flat, payload, title = _flat(args, reads)
    payload["equations"] = condition_equations(flat)
    vals = _collect_mult_values(args)
    if not vals:
        raise UsageError("provide multiplicity values, or --symbolic for the conditions")
    key, invariant, direct = _at_weights(flat, vals)
    payload[key] = {k: str(v) for k, v in sorted(vals.items())}
    payload["invariant"] = invariant
    if args.direct:
        viol = direct()
        payload["direct_invariant"] = not viol
        payload["routes_agree"] = (not viol) == invariant
    lines = [
        title,
        "conditions: " + "; ".join(payload["equations"] or ["none"]),
        f"invariant: {invariant}",
    ]
    _emit(args, payload, lines)
    return 0 if invariant else 1


def _parse_blocks(text: str | None) -> tuple[int, int]:
    if not text:
        return 0, 1
    parts = [p.strip() for p in re.split(r"[,x]", text) if p.strip()]
    if len(parts) not in (1, 2) or not all(p.isdigit() for p in parts):
        raise UsageError(f"--blocks expects 'r' or 'q,r', got {text!r}")
    sizes = [int(p) for p in parts]
    return (1, sizes[0]) if len(sizes) == 1 else (sizes[0], sizes[1])


def _flat(args, reads) -> tuple[Stratum | CollisionFlat, dict, str]:
    """The flat that check and solve name, the payload that describes it and its --pretty title.

    A real stratum is named by --family, --rank and --subgraph, a G(m,p,N)
    collision flat by --group, --blocks, --zeros and --eps.  An option given
    that is neither in reads nor of the named kind is a usage error.
    """
    if args.group:
        _reject_ignored(args, ("group", "blocks", "zeros", "eps", *reads), f"{args.command} --group")
        group = _from_user(parse_group_name, args.group)
        flat = _from_user(CollisionFlat, group, *_parse_blocks(args.blocks), args.zeros or 0, args.eps or 0)
        payload = {"group": repr(group), "blocks": {"q": flat.q, "r": flat.r, "eps": flat.eps}, "zeros": flat.l}
        title = f"{group!r} blocks q={flat.q} r={flat.r} eps={flat.eps} zeros={flat.l}"
    elif args.family:
        _reject_ignored(args, ("family", "rank", "subgraph", *reads), f"{args.command} --family")
        flat = _stratum(_root_system(args), args)
        payload = {"stratum": _stratum_summary(flat)}
        title = f"{flat.rs.name} [{flat.label or 'whole space'}]"
    else:
        raise UsageError(f"{args.command} needs --family or --group")
    return flat, {"command": args.command, **payload}, title


def _at_weights(flat, vals: dict[str, Fraction]) -> tuple:
    """The weights vals on the flat: the payload key they are reported under,
    the criterion's verdict there, and a thunk that runs the direct test there.

    Multiplicities.numeric reads the weights of a real stratum, weight_point
    those of a G(m,p,N) flat; each rejects a name its group does not have.
    """
    if isinstance(flat, CollisionFlat):
        point = _from_user(weight_point, flat.group, vals)
        return "weights", conditions_hold(flat, point), lambda: direct_ideal_violations(flat, point)
    mults = _from_user(Multiplicities.numeric, flat.rs, vals)
    return "multiplicities", criterion_invariant(flat, mults), lambda: direct_invariance_violations(flat, mults)


def cmd_restrict(args) -> int:
    rs = _root_system(args)
    st = _stratum(rs, args)
    payload = {"command": "restrict", "stratum": _stratum_summary(st)}
    vals = _collect_mult_values(args)
    if vals:
        mults = _from_user(Multiplicities.numeric, rs, vals)
        invariant = criterion_invariant(st, mults)
        payload["invariant"] = invariant
        payload["multiplicities"] = {k: str(v) for k, v in sorted(vals.items())}
        if not invariant and not args.force:
            payload["error"] = "ideal is not invariant at these multiplicities; use --force"
            _emit(args, payload)
            return 1
    else:
        solved = solve_multiplicities(st)
        payload["status"] = solved["status"]
        payload["equations"] = solved["equations"]
        if solved["status"] == "unique":
            mults = _instantiate_solution(st)
            payload["multiplicities"] = {name: str(mults.scalar(name)) for name in rs.orbit_names}
        elif solved["status"] == "inconsistent" and not args.force:
            payload["error"] = "no multiplicities make this ideal invariant; use --force for symbolic data"
            _emit(args, payload)
            return 1
        else:
            payload["values"] = solved.get("values", {})
            payload["free"] = solved.get("free", [])
            mults = Multiplicities.symbolic(rs)
    config = restricted_configuration(st, mults)
    payload["configuration"] = config.to_json()
    payload["conservation_defect"] = render_polynomial(
        conservation_defect(st, mults, config), names=mults.params or None
    )
    payload["radial_operator"] = config.radial_text()
    payload["potential_operator"] = config.potential_text()
    lines = [
        f"{rs.name} [{st.label or 'whole space'}]: "
        f"{config.size} lines in dim {config.span_dim}",
    ]
    for vec_text, mult_text in zip(
        payload["configuration"]["vectors"], payload["configuration"]["multiplicities"]
    ):
        lines.append(f"  ({', '.join(vec_text)})  mult {mult_text}")
    lines.append("radial: " + payload["radial_operator"])
    lines.append("potential: " + payload["potential_operator"])
    _emit(args, payload, lines)
    return 0


def _pretty_solve(payload: dict) -> list[str]:
    lines = list(payload.get("equations", []))
    if "status" in payload:
        lines.append(f"status: {payload['status']}")
    for name, text in sorted(payload.get("values", {}).items()):
        lines.append(f"{name} = {text}")
    if payload.get("free"):
        lines.append("free: " + ", ".join(payload["free"]))
    return lines


def cmd_solve(args, reads=()) -> int:
    """Solves the invariance conditions of the flat; check --symbolic reads its own options too."""
    flat, payload, _ = _flat(args, reads)
    solved = solve_multiplicities(flat)
    payload.update(solved)
    _emit(args, payload, _pretty_solve(payload))
    return 0 if solved["status"] != "inconsistent" else 1


def _catalog_entry(row: dict) -> dict:
    """The row's index beside its recomputed catalog fields."""
    return {"index": row["index"], **catalog_row_result(row)}


def cmd_catalog(args) -> int:
    results = _golden_results(args.golden, _CATALOG_KEYS, _catalog_entry)
    payload = {"command": "catalog", "rows": results}
    lines = [
        f"{'idx':>3} {'family':6} {'type':14} {'dim':>3} {'lines':>5} {'c':>6}  multiplicities"
    ]
    for row in results:
        mults = ", ".join(f"{k}:{v}" for k, v in sorted(row["mults"].items()))
        lines.append(
            f"{row['index']:>3} {row['family']:6} {row['type']:14} "
            f"{row['dim']:>3} {row['size']:>5} {row['c']:>6}  {mults}"
        )
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verification suites


# the options of the verify parser each suite reads, beside those every command takes
_VERIFY_READS = {
    "commutativity": ("family", "rank", "group", *_WEIGHT_FLAGS, "degree", "samples", "seed"),
    "gauge": ("family", "rank", "subgraph"),
    "restriction": ("family", "rank", "subgraph", *_WEIGHT_FLAGS, "degree"),
    "deformed": ("family", "rank", "subgraph", *_WEIGHT_FLAGS, "degree", "seed", "k", "l"),
    "catalog": ("golden",),
}
_VERIFY_DEFAULTS = {"degree": 4, "samples": 3, "seed": 0, "k": 1, "l": 2}


def _verify_options(args) -> None:
    """Rejects options the suite would not read, then fills in its defaults."""
    reads = set(_VERIFY_READS[args.suite])
    if args.suite == "commutativity" and args.group:
        # a group replaces the family
        reads -= {"family", "rank"}
    if any(getattr(args, name) is not None for name in _WEIGHT_FLAGS):
        # given weights replace the random samples
        reads -= {"samples", "seed"}
    _reject_ignored(args, reads, f"verify {args.suite}")
    for name, value in _VERIFY_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _require_at_least(args, flag: str, floor: int) -> None:
    value = getattr(args, flag)
    if value < floor:
        raise UsageError(f"verify {args.suite} needs --{flag} >= {floor}, got {value}")


def _verify_commutativity(args) -> tuple[dict, int]:
    _require_at_least(args, "degree", 0)
    _require_at_least(args, "samples", 1)
    rng = random.Random(args.seed)
    report = {"suite": "commutativity", "samples": [], "violations": 0}
    if args.group:
        group = _from_user(parse_group_name, args.group)
        report["group"] = repr(group)
        names = group.param_names()
        def context(vals):
            return ComplexDunklContext(group, _from_user(weight_point, group, vals))
    else:
        rs = _root_system(args)
        report["family"] = rs.name
        names = rs.orbit_names
        def context(vals):
            return DunklContext(rs, _from_user(Multiplicities.numeric, rs, vals))
    got = _collect_mult_values(args)
    vals_list = [got] if got else [_random_sample(rng, names) for _ in range(args.samples)]
    for vals in vals_list:
        bad = context(vals).commutativity_violations(args.degree)
        report["samples"].append(
            {"values": {k: str(v) for k, v in sorted(vals.items())}, "violations": len(bad)}
        )
        report["violations"] += len(bad)
    return report, 0 if report["violations"] == 0 else 1


def _verify_gauge(args) -> tuple[dict, int]:
    rs = _root_system(args)
    if args.subgraph:
        strata = [_stratum(rs, args)]
    else:
        strata = enumerate_parabolic_strata(rs)
    rows = []
    failures = 0
    for offset, st in enumerate(strata):
        solved = solve_multiplicities(st)
        row = {"label": st.label, "status": solved["status"]}
        if solved["status"] == "inconsistent":
            row["skipped"] = "no invariant multiplicities"
        else:
            mults = _instantiate_solution(st, offset)
            if not criterion_invariant(st, mults):
                raise RuntimeError(f"sampled point is off the invariance locus for {st.label}")
            bad = gauge_defects(st, mults)
            row["multiplicities"] = {
                name: render_scalar(mults.scalar(name)) for name in rs.orbit_names
            }
            row["defects"] = len(bad)
            failures += len(bad)
        rows.append(row)
    report = {
        "suite": "gauge",
        "family": rs.name,
        "strata": rows,
        "violations": failures,
    }
    return report, 0 if failures == 0 else 1


def _verify_restriction(args) -> tuple[dict, int]:
    _require_at_least(args, "degree", 2)
    rs = _root_system(args)
    st = _stratum(rs, args)
    vals = _collect_mult_values(args)
    if vals:
        mults = _from_user(Multiplicities.numeric, rs, vals)
    elif solve_multiplicities(st)["status"] == "inconsistent":
        return {"suite": "restriction", "error": "no invariant multiplicities"}, 3
    else:
        mults = _instantiate_solution(st)
    degrees = tuple(range(2, args.degree + 1, 2))
    bad = restriction_defects(st, mults, degrees=degrees)
    report = {
        "suite": "restriction",
        "family": rs.name,
        "label": st.label,
        "degrees": list(degrees),
        "failing_degrees": list(bad),
        "multiplicities": {name: render_scalar(mults.scalar(name)) for name in rs.orbit_names},
    }
    return report, 0 if not bad else 1


def _verify_deformed(args) -> tuple[dict, int]:
    _require_at_least(args, "degree", 0)
    _require_at_least(args, "k", 1)
    _require_at_least(args, "l", 1)
    if args.k == args.l and not args.subgraph:  # [H_k, H_k] = 0 at every weight
        raise UsageError(f"verify deformed with --k = --l = {args.k} and no --subgraph checks nothing")
    rs = _root_system(args)
    # H_k = sum_v (oscillator_v)^k is W-invariant only when W permutes the coordinates up to sign,
    # that is when each simple root has at most two nonzero coordinates, of equal absolute value
    nonzero = ([x for x in alpha if not x.is_zero()] for alpha in rs.simple)
    if any(len(xs) > 2 or len(xs) == 2 and xs[0] not in (xs[1], -xs[1]) for xs in nonzero):
        raise UsageError(f"verify deformed needs a group that permutes the coordinates up to sign, "
                         f"as those of A, B and D do; {rs.name} does not")
    rng = random.Random(args.seed)
    st = _stratum(rs, args) if args.subgraph else None
    vals = _collect_mult_values(args)
    if vals or st is None:
        mults = _from_user(Multiplicities.numeric, rs, vals or _random_sample(rng, rs.orbit_names))
    elif st.solution[0] == "inconsistent":
        return {"suite": "deformed", "error": "no invariant multiplicities"}, 3
    else:  # a seeded point of the stratum's invariance locus
        mults = _instantiate_solution(st, rng=rng)
    ctx = DeformedContext(rs, mults)
    bad = ctx.integrability_violations(args.k, args.l, args.degree)
    report = {
        "suite": "deformed",
        "family": rs.name,
        "powers": [args.k, args.l],
        "degree": args.degree,
        "multiplicities": {name: render_scalar(mults.scalar(name)) for name in rs.orbit_names},
        "violations": len(bad),
    }
    code = 0 if not bad else 1
    if st is not None:
        degrees = tuple(range(2, args.degree + 1, 2)) or (2,)
        defects = restriction_defects(st, mults, degrees=degrees)
        report["restriction_label"] = st.label
        report["restriction_degrees"] = list(degrees)
        report["restriction_failing_degrees"] = list(defects)
        report["restriction_constant"] = render_scalar(
            deformed_restriction_constant(st, mults)
        )
        if defects:
            code = 1
    return report, code


def _verify_catalog(args) -> tuple[dict, int]:
    results = _golden_results(args.golden, _VERIFY_CATALOG_KEYS, lambda row: catalog_compare([row])[0])
    matched = sum(1 for r in results if r["dim_match"] and r["mults_match"])
    size_diffs = [
        {
            "index": r["index"],
            "family": r["family"],
            "type": r["type"],
            "expected_size": r["expected"]["size"],
            "computed_size": r["computed"]["size"],
        }
        for r in results
        if not r["size_match"]
    ]
    report = {
        "suite": "catalog",
        "rows": results,
        "matched": matched,
        "total": len(results),
        "size_diffs": size_diffs,
    }
    return report, 0 if matched == len(results) else 1


def cmd_verify(args) -> int:
    suites = {
        "commutativity": _verify_commutativity,
        "gauge": _verify_gauge,
        "restriction": _verify_restriction,
        "deformed": _verify_deformed,
        "catalog": _verify_catalog,
    }
    _verify_options(args)
    report, code = suites[args.suite](args)
    lines = [f"suite {args.suite}: {'pass' if code == 0 else 'FAIL'}"]
    if args.suite == "catalog":
        lines.append(f"{report['matched']}/{report['total']} rows match")
        for diff in report["size_diffs"]:
            lines.append(
                f"  size diff row {diff['index']} ({diff['family']} {diff['type']}): "
                f"expected {diff['expected_size']}, computed {diff['computed_size']}"
            )
    elif args.suite == "gauge":
        for row in report["strata"]:
            note = row.get("skipped") or f"defects={row.get('defects', 0)}"
            lines.append(f"  {row['label'] or '(whole space)'}: {note}")
    _emit(args, report, lines)
    return code


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--pretty", action="store_true", help="human readable output")
    sub.add_argument("--float", action="store_true", help="add approximate decimals, clearly marked")


@functools.cache
def _common_options() -> frozenset[str]:
    """The attribute names of the options _add_common adds."""
    common = argparse.ArgumentParser()
    _add_common(common)
    return frozenset(vars(common.parse_args([])))


def _add_family(sub):
    sub.add_argument("--family", help="A, B, D, E, F4, G2, H3, H4 or I2(m)")
    sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--subgraph", default="", help="subgraph spec, see README")


def _add_mults(sub):
    # every weight flag collects its values, so that _collect_mult_values sees a repeat
    sub.add_argument("--c", action="append", help="multiplicity for a single orbit")
    sub.add_argument("--c1", action="append", help="first orbit multiplicity")
    sub.add_argument("--c2", action="append", help="second orbit multiplicity")
    sub.add_argument("--mult", action="append", help="name=value, repeatable")


def _add_group(sub):
    sub.add_argument("--group", help="complex group, e.g. G(4,2,3)")
    sub.add_argument("--blocks", help="collision blocks 'q,r' (or just 'r')")
    sub.add_argument("--zeros", type=int, default=None, help="trailing zero coordinates (0)")
    sub.add_argument("--eps", type=int, default=None, help="root-of-unity twist power on the last block (0)")
    sub.add_argument("--c0", action="append", help="reflection weight")
    sub.add_argument("--c0-odd", dest="c0_odd", action="append", help="odd-twist reflection weight (N=2, even p)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; each parse_args call returns fresh arguments."""
    parser = argparse.ArgumentParser(
        prog="dunklcm",
        description="Exact invariance and restriction of Dunkl operators on reflection arrangements.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="decide invariance of a stratum ideal")
    _add_family(p)
    _add_group(p)
    _add_mults(p)
    p.add_argument("--symbolic", action="store_true", help="print the invariance conditions instead")
    p.add_argument("--direct", action="store_true", help="cross-check with the direct ideal test")
    p.add_argument("--seed", type=int, default=None, help="accepted and ignored: the direct test draws nothing")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("restrict", help="project the weighted lines onto a stratum")
    _add_family(p)
    _add_mults(p)
    p.add_argument("--force", action="store_true", help="restrict even when not invariant")
    _add_common(p)
    p.set_defaults(func=cmd_restrict)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["commutativity", "gauge", "restriction", "deformed", "catalog"])
    _add_family(p)
    _add_group(p)
    _add_mults(p)
    # None marks an option not given; _verify_options fills in the defaults
    defaults = _VERIFY_DEFAULTS
    p.add_argument("--degree", type=int, default=None,
                   help=f"max monomial degree for operator identities ({defaults['degree']})")
    p.add_argument("--samples", type=int, default=None, help=f"random multiplicity samples ({defaults['samples']})")
    p.add_argument("--seed", type=int, default=None, help=f"seed of the random multiplicity samples ({defaults['seed']})")
    p.add_argument("--k", type=int, default=None, help=f"first conserved-power exponent ({defaults['k']})")
    p.add_argument("--l", type=int, default=None, help=f"second conserved-power exponent ({defaults['l']})")
    p.add_argument("--golden", default=None, help="alternate golden catalog JSON")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("catalog", help="recompute the classification table")
    p.add_argument("--golden", default=None, help="alternate row definitions JSON")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = subs.add_parser("solve", help="solve the invariance conditions")
    _add_family(p)
    _add_group(p)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        report = {"error": f"{type(exc).__name__}: {exc}", "internal": True,
                  "traceback": traceback.format_exc()}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
