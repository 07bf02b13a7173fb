"""On-disk formats and reproducibility plumbing.

* VGAM: a tiny binary matrix container -- magic ``VGAM``, a version byte,
  two little-endian uint64 dimensions, then row-major little-endian float64.
* CSV: comma separated, '.' decimal, 17 significant digits, with a schema
  comment line naming the columns and the format version.
* Config: flat ``key = value`` text with dotted section names (diff-friendly);
  JSON is accepted as alternate input.  Dumping is canonical (sorted keys) so
  a rerun writes byte-identical copies.
* Substreams: all randomness flows from one seed through named children
  (:func:`substream_seed`), so the data draw and the chain can be
  re-seeded separately.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidData, is_count

__all__ = [
    "VGAM_VERSION",
    "CSV_VERSION",
    "write_vgam",
    "read_vgam",
    "write_csv",
    "read_csv",
    "parse_config_text",
    "dump_config_text",
    "load_config",
    "substream_seed",
]

VGAM_MAGIC = b"VGAM"
VGAM_VERSION = 1
_VGAM_HEADER = 21  # magic, version byte, two uint64 dimensions
CSV_VERSION = 1


def write_vgam(path, array) -> None:
    arr = np.asarray(array, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidData("VGAM stores 2-d arrays")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(VGAM_MAGIC)
        fh.write(bytes([VGAM_VERSION]))
        fh.write(np.array([rows, cols], dtype="<u8").tobytes())
        # written from the array's buffer: no copy of the payload
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_vgam(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_VGAM_HEADER)
        size = os.fstat(fh.fileno()).st_size
    if head[:4] != VGAM_MAGIC:
        raise InvalidData(f"{path}: not a VGAM file")
    if len(head) < _VGAM_HEADER:
        raise InvalidData(f"{path}: truncated VGAM header")
    if head[4] != VGAM_VERSION:
        raise InvalidData(f"{path}: unsupported VGAM version {head[4]}")
    rows, cols = (int(v) for v in np.frombuffer(head[5:], dtype="<u8"))
    if size - _VGAM_HEADER != 8 * rows * cols:
        raise InvalidData(f"{path}: payload size disagrees with header")
    # read straight into the returned array: no copy of the file's bytes
    data = np.fromfile(path, dtype="<f8", count=rows * cols, offset=_VGAM_HEADER)
    return data.reshape(rows, cols)


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path, names, columns) -> None:
    """Write named columns with the versioned schema comment line."""
    columns = [np.asarray(c) for c in columns]
    if len(names) != len(columns):
        raise InvalidData("column names/values disagree in count")
    if columns and any(c.shape[0] != columns[0].shape[0] for c in columns):
        raise InvalidData("columns disagree in length")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# pvga-csv v{CSV_VERSION}: {','.join(names)}\n")
        for row in zip(*columns):
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def read_csv(path) -> dict:
    """Read a versioned CSV back into {name: float array}."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# pvga-csv v"):
        raise InvalidData(f"{path}: missing schema line")
    head, _, cols = lines[0].partition(":")
    version = head[len("# pvga-csv v"):]
    if version != str(CSV_VERSION):
        raise InvalidData(f"{path}: unsupported CSV version {version!r}")
    names = [c.strip() for c in cols.split(",")]
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    if any(len(row) != len(names) for row in rows):
        raise InvalidData(f"{path}: a row's cell count differs from the {len(names)} columns")
    try:
        data = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    except ValueError:
        raise InvalidData(f"{path}: a cell is not a number") from None
    return {name: data[:, j] for j, name in enumerate(names)}


# ---------------------------------------------------------------------------
# config text
# ---------------------------------------------------------------------------


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def parse_config_text(text: str) -> dict:
    """Parse ``section.key = value`` lines (or a JSON object) into a dict."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        node = out
        parts = [p.strip() for p in key.strip().split(".")]
        if any(not p for p in parts):
            raise ConfigError(f"line {lineno}: bad key {key.strip()!r}")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {part!r} is both a value and a section")
        node[parts[-1]] = _parse_value(raw)
    return out


def _flatten(cfg: dict, prefix: str = ""):
    for key in sorted(cfg):
        val = cfg[key]
        dotted = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, dotted + ".")
        else:
            yield dotted, val


def dump_config_text(cfg: dict) -> str:
    """Canonical flat serialization; parse(dump(cfg)) == cfg."""
    lines = [f"{key} = {json.dumps(val)}" for key, val in _flatten(cfg)]
    return "\n".join(lines) + "\n"


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(p.read_text())


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def substream_seed(seed: int, name: str) -> int:
    """Stable derived seed for the named component of a nonnegative integer
    seed."""
    if not (is_count(seed) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(
        np.random.SeedSequence((int(seed), zlib.crc32(name.encode()))).generate_state(1)[0]
    )
