"""Independent checks of evspace's report text.

Nothing here imports evspace: every verdict is re-derived from the generated
inputs with the standard library alone, and the program's output is read only
as ``key: value`` text.  A check raises ``CheckError`` on the first wrong
field.

Vectors are plain dicts ``{"n": int, "unary": {i: Fraction},
"pairwise": {(i, j): Fraction}}``; absent entries are simply missing.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

HALF = Fraction(1, 2)
FLOAT_TOL = 1e-9

_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")
_INTEGER = re.compile(r"-?\d+")
_BITS = re.compile(r"[01]+")
_WITNESS_TERM = re.compile(r"(-?\d+)·p(\d+)(?:,(\d+))?")
_COMPLEX = re.compile(r"\(([^,()]+), ([^,()]+)\)")
_SURVEY_ROW = re.compile(
    r"query=(\S+) terms=([^,\s]+),(\S+) p=(\S+) q=(\S+) r=(\S+) verdict=([YN]{3})")


class CheckError(Exception):
    """The program's output disagrees with the independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Report text
# ---------------------------------------------------------------------------

def parse_report(text: str) -> list[tuple[str, str]]:
    fields = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        key, sep, value = ln.partition(": ")
        require(bool(sep), f"bad report line {ln!r}")
        fields.append((key, value))
    return fields


def _single(fields: list[tuple[str, str]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for key, value in fields:
        if key == "warning":
            continue
        require(key not in out, f"duplicate key {key!r}")
        out[key] = value
    return out


def rational(text: str) -> Fraction:
    require(bool(_RATIONAL.fullmatch(text)), f"not an exact rational: {text!r}")
    return Fraction(text)


def flag(text: str) -> bool:
    require(text in ("yes", "no"), f"not a yes/no flag: {text!r}")
    return text == "yes"


def number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None


def _close(value: float, want: float, what: str) -> None:
    require(abs(value - want) <= FLOAT_TOL, f"{what}: {value} != {want}")


# ---------------------------------------------------------------------------
# Correlation-polytope certificates
# ---------------------------------------------------------------------------

def restrict(vec: dict, events: list[int]) -> dict:
    """The vector seen by the events in the given order, renumbered 1..k."""
    pos = {e: k + 1 for k, e in enumerate(events)}
    unary = {pos[i]: v for i, v in vec["unary"].items() if i in pos}
    pairwise = {}
    for (i, j), v in vec["pairwise"].items():
        if i in pos and j in pos:
            pairwise[tuple(sorted((pos[i], pos[j])))] = v
    return {"n": len(events), "unary": unary, "pairwise": pairwise}


def check_weights(vec: dict, weights: dict[str, Fraction]) -> None:
    """Exact convex weights over vertex bit strings (event i is character
    i-1) that re-substitute to every present entry of ``vec``."""
    n = vec["n"]
    require(bool(weights), "feasible certificate without weights")
    for bits, w in weights.items():
        require(len(bits) == n and bool(_BITS.fullmatch(bits)),
                f"vertex {bits!r} is not a {n}-bit string")
        require(w >= 0, f"negative weight {w} on {bits}")
    require(sum(weights.values()) == 1, "weights do not sum to 1")
    for i, value in vec["unary"].items():
        got = sum(w for bits, w in weights.items() if bits[i - 1] == "1")
        require(got == value, f"weights give p{i}={got}, vector has {value}")
    for (i, j), value in vec["pairwise"].items():
        got = sum(w for bits, w in weights.items()
                  if bits[i - 1] == "1" and bits[j - 1] == "1")
        require(got == value, f"weights give p{i},{j}={got}, vector has {value}")


def parse_witness(text: str) -> tuple[dict, int]:
    """Parse ``c·p1 + c·p1,2 + ... + const > 0``, with or without a leading
    ``witness: `` (the report key repeated inside the value)."""
    if text.startswith("witness: "):
        text = text[len("witness: "):]
    require(text.endswith(" > 0"), f"witness without '> 0': {text!r}")
    *terms, const = text[:-len(" > 0")].split(" + ")
    require(bool(_INTEGER.fullmatch(const)), f"witness constant {const!r}")
    coeffs: dict = {}
    for term in terms:
        m = _WITNESS_TERM.fullmatch(term)
        require(m is not None, f"bad witness term {term!r}")
        key = int(m.group(2)) if m.group(3) is None else (int(m.group(2)), int(m.group(3)))
        require(key not in coeffs, f"repeated witness term {term!r}")
        coeffs[key] = int(m.group(1))
    return coeffs, int(const)


def check_witness(vec: dict, coeffs: dict, const: int) -> None:
    """The functional is > 0 on ``vec`` and <= 0 on each of the 2^n vertices."""
    n = vec["n"]
    value = Fraction(const)
    for key, c in coeffs.items():
        entries = vec["unary"] if isinstance(key, int) else vec["pairwise"]
        require(key in entries, f"witness uses absent entry {key}")
        value += c * entries[key]
    require(value > 0, f"witness is {value} on the vector, not > 0")
    unary = [(i - 1, c) for i, c in coeffs.items() if isinstance(i, int)]
    pairs = [(k[0] - 1, k[1] - 1, c) for k, c in coeffs.items() if not isinstance(k, int)]
    for mask in range(1 << n):
        total = const
        for i, c in unary:
            if mask >> i & 1:
                total += c
        for i, j, c in pairs:
            if mask >> i & 1 and mask >> j & 1:
                total += c
        require(total <= 0, f"witness is {total} > 0 on vertex mask {mask:0{n}b}")


def _certificate(vec: dict, fields: list[tuple[str, str]], prefix: str,
                 singleton: bool = False) -> bool:
    """Check the weight or witness fields under ``prefix``; return feasibility."""
    weights: dict[str, Fraction] = {}
    witness = None
    for key, value in fields:
        if not key.startswith(prefix):
            continue
        rest = key[len(prefix):]
        if rest.startswith("weight."):
            bits = rest[len("weight."):]
            if singleton and len(bits) == 2:
                require(bits[1] == "0", f"singleton padding bit set in {bits!r}")
                bits = bits[0]
            require(bits not in weights, f"repeated vertex {bits}")
            weights[bits] = rational(value)
        elif rest == "witness":
            require(witness is None, "two witnesses")
            witness = parse_witness(value)
    require(bool(weights) != (witness is not None),
            "certificate needs exactly one of weights or a witness")
    if witness is not None:
        check_witness(vec, *witness)
        return False
    check_weights(vec, weights)
    return True


def check_membership(text: str, vec: dict, expect_feasible: bool | None) -> None:
    fields = parse_report(text)
    single = {k: v for k, v in fields if not k.startswith("weight.")}
    require(single.get("n") == str(vec["n"]), f"n is {single.get('n')!r}")
    feasible = flag(single.get("feasible", ""))
    require(_certificate(vec, fields, "") == feasible,
            "feasible flag disagrees with the certificate")
    if expect_feasible is not None:
        require(feasible == expect_feasible,
                f"vector built {'feasible' if expect_feasible else 'infeasible'}"
                f" came back {'feasible' if feasible else 'infeasible'}")


def check_decompose(text: str, vec: dict) -> None:
    fields = parse_report(text)
    lookup = dict(fields)
    n = vec["n"]
    require(lookup.get("n") == str(n), f"n is {lookup.get('n')!r}")
    count = int(lookup.get("subsets", "0"))
    require(count >= 1, "no subsets")
    seen: list[int] = []
    for idx in range(1, count + 1):
        raw = lookup.get(f"subset.{idx}.events")
        require(raw is not None, f"subset {idx} has no events")
        events = [int(e) for e in raw.split(",")]
        seen.extend(events)
        feasible = _certificate(restrict(vec, events), fields, f"subset.{idx}.",
                                singleton=len(events) == 1)
        require(feasible, f"subset {idx} does not admit a single space")
    require(sorted(seen) == list(range(1, n + 1)),
            f"subsets {sorted(seen)} do not partition 1..{n}")
    for key, _ in fields:
        if key.startswith("subset."):
            require(int(key.split(".")[1]) <= count, f"stray field {key}")


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

def verdict(p: Fraction, q: Fraction, r: Fraction) -> dict:
    """Classical interval and squared-form quantum tests, exactly."""
    lo, hi = abs(p + q - 1), 1 - abs(p - q)
    s, u = p * q, (1 - p) * (1 - q)
    center, radius_sq = s + u, 4 * s * u
    classical = lo <= r <= hi
    real = (r - center) ** 2 == radius_sq
    return {
        "classical": classical,
        "real_qs": real,
        "complex_qs": (r - center) ** 2 <= radius_sq,
        "classical_lower": lo,
        "classical_upper": hi,
        "complex_lower": float(center) - math.sqrt(radius_sq),
        "complex_upper": float(center) + math.sqrt(radius_sq),
        "boundary": (classical and r in (lo, hi)) or real,
    }


def check_triple(text: str, p: Fraction, q: Fraction, r: Fraction,
                 marginal: Fraction | None, extra: dict[str, str] | None = None) -> None:
    """A report of ``_triple_fields`` followed by ``_verdict_fields``."""
    got = _single(parse_report(text))
    for key, value in (extra or {}).items():
        require(got.pop(key, None) == value, f"{key} is not {value!r}")
    for key, want in (("p", p), ("q", q), ("r", r)):
        require(rational(got.pop(key, "")) == want, f"{key} is not {want}")
    if marginal is None:
        require("marginal" not in got, "marginal reported for unequal marginals")
    else:
        require(rational(got.pop("marginal", "")) == marginal, f"marginal is not {marginal}")
    want = verdict(p, q, r)
    for key in ("classical", "real_qs", "complex_qs", "boundary"):
        require(flag(got.pop(key, "")) == want[key], f"{key} flag is wrong")
    for key in ("classical_lower", "classical_upper"):
        require(rational(got.pop(key, "")) == want[key], f"{key} is not {want[key]}")
    for key in ("complex_lower", "complex_upper"):
        _close(number(got.pop(key, ""), key), want[key], key)
    require(flag(got.pop("symmetry_checked", "")) == (marginal == HALF),
            "symmetry_checked is wrong")
    require(not got, f"unexpected fields {sorted(got)}")


def table_triple(header: list[str], rows: list[tuple[str, int]], a: str, b: str,
                 c: str, strategy: str) -> tuple[Fraction, Fraction, Fraction,
                                                 Fraction | None]:
    """(Pr(b|a), Pr(c|b), Pr(c|a), common marginal or None) recounted from
    rows of cell strings such as ``"1,0,?"`` with their multiplicities."""
    cols = [header.index(name) for name in (a, b, c)]
    table = [(cells.split(","), count) for cells, count in rows]
    if strategy == "exclude-unknown":
        table = [(cells, count) for cells, count in table
                 if all(cells[k] != "?" for k in cols)]

    def present(*ks: int) -> int:
        return sum(count for cells, count in table if all(cells[k] == "1" for k in ks))

    ia, ib, ic = cols
    total = sum(count for _, count in table)
    marginals = {Fraction(present(k), total) for k in cols}
    return (Fraction(present(ia, ib), present(ia)),
            Fraction(present(ib, ic), present(ib)),
            Fraction(present(ia, ic), present(ia)),
            marginals.pop() if len(marginals) == 1 else None)


def check_realize(text: str, p: Fraction, q: Fraction, r: Fraction) -> None:
    got = _single(parse_report(text))
    for key, want in (("p", p), ("q", q), ("r", r)):
        require(rational(got.get(key, "")) == want, f"{key} is not {want}")
    want = verdict(p, q, r)
    require(flag(got.get("representable", "")) == want["complex_qs"],
            "representable flag is wrong")
    if not want["complex_qs"]:
        require(set(got) == {"p", "q", "r", "representable"}, "unexpected fields")
        return
    require(got.get("field") == ("real" if want["real_qs"] else "complex"),
            f"field is {got.get('field')!r}")
    vecs = {}
    for name in "abc":
        comps = [complex(float(x), float(y)) for x, y in _COMPLEX.findall(got.get(name, ""))]
        require(len(comps) == 2, f"vector {name} is not 2-dimensional")
        _close(sum(abs(z) ** 2 for z in comps), 1.0, f"norm of {name}")
        vecs[name] = comps

    def amp(x: str, y: str) -> float:
        return abs(sum(yc.conjugate() * xc for xc, yc in zip(vecs[x], vecs[y]))) ** 2

    _close(amp("a", "b"), float(p), "|<b|a>|^2")
    _close(amp("b", "c"), float(q), "|<c|b>|^2")
    _close(amp("a", "c"), float(r), "|<c|a>|^2")
    number(got.get("phase", ""), "phase")


# ---------------------------------------------------------------------------
# Corpus survey
# ---------------------------------------------------------------------------

def survey_rows(documents: dict[str, set[str]],
                queries: list[tuple[str, set[str]]]) -> list[tuple]:
    """Every (query, term b, term c, p, q, r, flags) row, recounted: for each
    query, the term pairs b < c whose document frequency equals the number
    of relevant documents."""
    postings: dict[str, set[str]] = {}
    for doc, terms in documents.items():
        for term in terms:
            postings.setdefault(term, set()).add(doc)
    rows = []
    for qid, relevant in queries:
        size = len(relevant)
        chosen = sorted(t for t, docs in postings.items() if len(docs) == size)
        for x, b in enumerate(chosen):
            for c in chosen[x + 1:]:
                p = Fraction(len(postings[b] & relevant), size)
                q = Fraction(len(postings[b] & postings[c]), size)
                r = Fraction(len(postings[c] & relevant), size)
                v = verdict(p, q, r)
                flags = "".join("Y" if v[k] else "N"
                                for k in ("classical", "real_qs", "complex_qs"))
                rows.append((qid, b, c, p, q, r, flags))
    return rows


def check_survey(text: str, n_docs: int, expected_rows: list[tuple]) -> None:
    fields = parse_report(text)
    require(fields[:2] == [("documents", str(n_docs)), ("rows", str(len(expected_rows)))],
            f"header is {fields[:2]}")
    got = []
    for idx, (key, value) in enumerate(fields[2:], 1):
        require(key == f"row.{idx}", f"field {key!r} is not row.{idx}")
        m = _SURVEY_ROW.fullmatch(value)
        require(m is not None, f"bad survey row {value!r}")
        qid, b, c, p, q, r, flags = m.groups()
        got.append((qid, b, c, rational(p), rational(q), rational(r), flags))
    require(sorted(got) == sorted(expected_rows), "survey rows differ from the recount")
