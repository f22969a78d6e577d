"""JSON and CSV artifacts with deterministic, fingerprinted output.

Complex matrices are stored as nested row-major lists of [re, im] pairs.
Floats go through repr, so an export/import round trip reproduces every
operator bit-exactly on the same platform. Fingerprints are SHA-256
hashes of the canonical dump with any volatile fields removed.
"""

import csv
import hashlib
import json
import operator
from datetime import datetime, timezone

import numpy as np

from .errors import ValidationError
from .geam import Geam, GeamParams, validate_geam
from .maps import Witness

GEAM_FORMAT = "geam/1"
WITNESS_FORMAT = "witness/1"
CERTIFICATION_FORMAT = "certification/2"
ANALYSIS_FORMAT = "analysis/1"

DETECTION_COLUMNS = ("family", "parameter", "k", "L", "K", "expectation", "detected")


def complex_to_pairs(a: np.ndarray):
    """Nested lists of [re, im], row-major."""
    a = np.asarray(a, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def pairs_to_complex(obj) -> np.ndarray:
    rows = [[complex(re, im) for re, im in row] for row in obj]
    return np.array(rows, dtype=complex)


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def fingerprint(doc: dict) -> str:
    stripped = {k: v for k, v in doc.items() if k != "created"}
    return hashlib.sha256(canonical_dumps(stripped).encode()).hexdigest()[:16]


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_json(doc: dict, path, *, timestamp: bool = True):
    doc = dict(doc)
    if timestamp:
        doc["created"] = _timestamp()
    # encoded before the file is opened, so a failed encode leaves no file
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path) -> dict:
    """Read a JSON object; a file that is not one raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return doc


def geam_document(geam: Geam) -> dict:
    p = geam.params
    basis = dict(geam.basis_meta) or {"kind": "custom"}
    basis.setdefault("unitary_seed", None)
    return {
        "format": GEAM_FORMAT,
        "d": p.d,
        "m": list(p.m),
        "gamma": list(p.gamma),
        "b": list(p.b),
        "tau_sign": list(p.tau_sign),
        "basis": basis,
        "operators": [complex_to_pairs(op) for grp in geam.ops for op in grp],
    }


def save_geam(geam: Geam, path, *, timestamp: bool = True) -> str:
    doc = geam_document(geam)
    write_json(doc, path, timestamp=timestamp)
    return fingerprint(doc)


def load_geam(path) -> Geam:
    """Read a GEAM document whose operators pass every validate_geam check,
    so formulas may read geam.derived. Missing or mistyped keys, operators
    not of shape (d, d) and failed checks raise ValidationError."""
    doc = read_json(path)
    if doc.get("format") != GEAM_FORMAT:
        raise ValidationError(f"not a GEAM document: format {doc.get('format')!r}")
    try:
        params = GeamParams(d=doc["d"], m=doc["m"], gamma=doc["gamma"], b=doc["b"],
                            tau_sign=doc["tau_sign"])
        ops = np.array([pairs_to_complex(op) for op in doc["operators"]])
        basis_meta = dict(doc.get("basis", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed GEAM document: {exc!r}") from None
    want = (sum(params.m), params.d, params.d)
    if ops.shape != want:
        raise ValidationError(f"operators have shape {ops.shape}, want {want} "
                              "for this layout")
    groups = np.split(ops, np.cumsum(params.m)[:-1])
    geam = Geam(params=params, ops=tuple(groups), basis_meta=basis_meta)
    failed = [c.name for c in validate_geam(geam).checks if not c.passed]
    if failed:
        raise ValidationError(f"GEAM document fails validation: {'; '.join(failed)}")
    return geam


def witness_document(witness: Witness) -> dict:
    return {
        "format": WITNESS_FORMAT,
        "d": witness.d,
        "matrix": complex_to_pairs(witness.w),
        "meta": dict(witness.meta),
    }


def save_witness(witness: Witness, path, *, timestamp: bool = True) -> str:
    doc = witness_document(witness)
    write_json(doc, path, timestamp=timestamp)
    return fingerprint(doc)


def load_witness(path) -> Witness:
    doc = read_json(path)
    if doc.get("format") != WITNESS_FORMAT:
        raise ValidationError(f"not a witness document: format {doc.get('format')!r}")
    try:
        d = operator.index(doc["d"])
        witness = Witness(w=pairs_to_complex(doc["matrix"]), meta=dict(doc.get("meta", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed witness document: {exc!r}") from None
    if witness.d != d:
        raise ValidationError(f"witness matrix is for d = {witness.d}, not d = {d}")
    return witness


def certification_document(report, mehta, witness_fingerprint: str) -> dict:
    """The certification/2 document of a min_schmidt_k report and the
    mehta_ratio report at the same k, for the witness file with the given
    fingerprint. The Mehta thresholds are the purity-ratio bounds for
    outputs on the d- and kd-dimensional spaces (see MehtaReport)."""
    d, k = len(report.argmin.c), report.k
    return {
        "format": CERTIFICATION_FORMAT,
        "verdict": report.verdict,
        "min_value": report.min_value,
        "argmin": complex_to_pairs(report.argmin.c),
        "k": k,
        "samples": report.samples,
        "restarts": report.restarts,
        "iters": report.iters,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "bracket": {
            "lower_bound": report.lower_bound,
            "upper_bound": report.upper_bound,
            "gap": report.upper_bound - report.lower_bound,
        },
        "convergence": report.convergence._asdict(),
        "witness_fingerprint": witness_fingerprint,
        "mehta": {
            "max_ratio": mehta.max_ratio,
            "samples": mehta.samples,
            "skipped": mehta.skipped,
            "threshold_output_dimension": 1.0 / (d - 1),
            "threshold_extended_dimension": 1.0 / (k * d - 1),
        },
    }


def write_detection_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DETECTION_COLUMNS)
        for r in records:
            writer.writerow([r.family, repr(r.parameter), r.k, r.l, r.kk,
                             repr(r.expectation), int(r.detected)])
