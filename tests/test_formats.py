"""Binary matrix format, versioned CSV, config text, and seed substreams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pvga.errors import ConfigError, InvalidData
from pvga.formats import (
    dump_config_text,
    load_config,
    parse_config_text,
    read_csv,
    read_vgam,
    substream_seed,
    write_csv,
    write_vgam,
)


# -- binary matrices ---------------------------------------------------------


def test_vgam_round_trip(tmp_path, rng):
    M = rng.standard_normal((7, 3))
    p = tmp_path / "m.vgam"
    write_vgam(p, M)
    np.testing.assert_array_equal(read_vgam(p), M)  # bit-exact
    write_vgam(p, np.asfortranarray(M))
    np.testing.assert_array_equal(read_vgam(p), M)


# float64 values, with the bit patterns a formatting slip loses drawn often
_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -np.inf, np.inf, np.nan]) | st.floats(width=64)


@settings(max_examples=60, deadline=None)
@given(M=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
                    elements=_FLOATS),
       fortran=st.booleans())
def test_vgam_round_trips_every_array_bit_for_bit(tmp_path_factory, M, fortran):
    # any shape, zero-size included, either memory order, and every float64
    # bit pattern (signed zeros, subnormals, infinities, NaN payloads); a
    # vector comes back as a column
    p = tmp_path_factory.mktemp("vgam") / "m.vgam"
    write_vgam(p, np.asfortranarray(M) if fortran else M)
    out = read_vgam(p)
    expected = M[:, None] if M.ndim == 1 else M
    assert out.shape == expected.shape
    assert out.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_vgam_io_makes_no_payload_copy(tmp_path, rng):
    # the file is the header and the row-major payload byte for byte; writing
    # allocates nothing near the payload's size and reading only the result
    M = rng.standard_normal((2000, 50))
    p = tmp_path / "big.vgam"
    tracemalloc.start()
    try:
        write_vgam(p, M)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = read_vgam(p)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = b"VGAM" + bytes([1]) + np.array([2000, 50], dtype="<u8").tobytes()
    assert p.read_bytes() == expected + M.astype("<f8").tobytes()
    np.testing.assert_array_equal(out, M)
    assert write_peak <= 0.1 * M.nbytes, write_peak
    assert read_peak <= 1.1 * M.nbytes, read_peak


def test_vgam_vector_becomes_column(tmp_path, rng):
    v = rng.standard_normal(5)
    p = tmp_path / "v.vgam"
    write_vgam(p, v)
    out = read_vgam(p)
    assert out.shape == (5, 1)
    np.testing.assert_array_equal(out[:, 0], v)


def test_vgam_header_layout(tmp_path):
    p = tmp_path / "h.vgam"
    write_vgam(p, np.zeros((2, 3)))
    blob = p.read_bytes()
    assert blob[:4] == b"VGAM"
    assert blob[4] == 1
    assert np.frombuffer(blob[5:21], dtype="<u8").tolist() == [2, 3]
    assert len(blob) == 21 + 6 * 8


def test_vgam_rejects_corruption(tmp_path):
    p = tmp_path / "bad.vgam"
    write_vgam(p, np.ones((2, 2)))
    blob = bytearray(p.read_bytes())

    wrong_magic = tmp_path / "magic.vgam"
    wrong_magic.write_bytes(b"XGAM" + bytes(blob[4:]))
    with pytest.raises(InvalidData):
        read_vgam(wrong_magic)

    wrong_version = tmp_path / "vers.vgam"
    wrong_version.write_bytes(bytes(blob[:4]) + bytes([9]) + bytes(blob[5:]))
    with pytest.raises(InvalidData):
        read_vgam(wrong_version)

    truncated = tmp_path / "trunc.vgam"
    for cut in (8, 3, len(blob) - 4, len(blob) - 10):
        truncated.write_bytes(bytes(blob[:-cut]))
        with pytest.raises(InvalidData):
            read_vgam(truncated)

    with pytest.raises(InvalidData):
        write_vgam(tmp_path / "t.vgam", np.zeros((2, 2, 2)))


# -- CSV ----------------------------------------------------------------------


def test_csv_round_trip_full_precision(tmp_path, rng):
    x = rng.standard_normal(9)
    k = np.arange(9)
    p = tmp_path / "t.csv"
    write_csv(p, ["k", "x"], [k, x])
    back = read_csv(p)
    np.testing.assert_array_equal(back["x"], x)  # %.17g survives float64 exactly
    np.testing.assert_array_equal(back["k"], k.astype(float))


_CSV_NAMES = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True),
                      min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), names=_CSV_NAMES, n=st.integers(0, 6))
def test_csv_round_trips_every_column(tmp_path_factory, data, names, n):
    # float columns keep every value bit for bit (NaN as NaN) and integer
    # columns come back as the equal floats, at any length including zero
    cols = [
        data.draw(hnp.arrays(np.float64, n, elements=_FLOATS))
        if data.draw(st.booleans())
        else data.draw(hnp.arrays(np.int64, n, elements=st.integers(-(2**53), 2**53)))
        for _ in names
    ]
    p = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(p, names, cols)
    back = read_csv(p)
    assert list(back) == names
    for name, col in zip(names, cols):
        got, want = back[name], col.astype(float)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_csv_schema_line(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(p, ["a", "b"], [np.zeros(2), np.ones(2)])
    first = p.read_text().splitlines()[0]
    assert first.startswith("# pvga-csv v")
    assert first.endswith("a,b")


def test_csv_guards(tmp_path):
    with pytest.raises(InvalidData):
        write_csv(tmp_path / "g.csv", ["a"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(InvalidData):
        write_csv(tmp_path / "g.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])
    bare = tmp_path / "bare.csv"
    bare.write_text("1,2\n3,4\n")
    with pytest.raises(InvalidData):
        read_csv(bare)
    # a bad version, a ragged row and a non-numeric cell are corrupt files too
    for name, text in (("version", "# pvga-csv vx: a,b\n1,2\n"),
                       ("ragged", "# pvga-csv v1: a,b\n1,2\n3\n"),
                       ("cell", "# pvga-csv v1: a,b\n1,x\n")):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        with pytest.raises(InvalidData):
            read_csv(bad)


# -- config text ---------------------------------------------------------------


def test_config_round_trip_identity():
    cfg = {
        "problem": {"name": "phillips", "size": 100, "seed": 0, "rate_scale": None},
        "prior": {"kind": "L2", "alpha": 0.1},
        "solver": {"mode": "dense", "max_outer": 50, "outer_tol_elbo": 1e-10},
        "emit": {"csv": True, "binary": False},
    }
    assert parse_config_text(dump_config_text(cfg)) == cfg


_CONFIG_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)
_CONFIG_VALUES = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
_CONFIGS = st.recursive(
    _CONFIG_VALUES,
    lambda inner: st.dictionaries(_CONFIG_KEYS, inner, min_size=1, max_size=4),
    max_leaves=12,
).filter(lambda c: isinstance(c, dict))


@settings(max_examples=100, deadline=None)
@given(cfg=_CONFIGS)
def test_config_text_round_trips_and_is_canonical(cfg):
    # parse(dump(cfg)) == cfg for nested sections of JSON scalars (any text,
    # newlines, '=' and '#' included), and the dump does not depend on the
    # order the keys were inserted in, so reruns write the same config.txt
    text = dump_config_text(cfg)
    assert parse_config_text(text) == cfg

    def reverse(c):
        return {k: reverse(v) if isinstance(v, dict) else v for k, v in reversed(list(c.items()))}

    assert dump_config_text(reverse(cfg)) == text


def test_config_parses_sections_and_comments():
    text = """
    # experiment
    problem.name = "gravity"
    problem.size = 60
    solver.pcg_tol = 1e-06
    emit.csv = true
    """
    cfg = parse_config_text(text)
    assert cfg["problem"] == {"name": "gravity", "size": 60}
    assert cfg["solver"]["pcg_tol"] == 1e-6
    assert cfg["emit"]["csv"] is True


def test_config_accepts_json():
    cfg = parse_config_text('{"problem": {"name": "heat", "size": 40}}')
    assert cfg["problem"]["size"] == 40


def test_config_diagnostics():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("problem.name phillips")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a.b = 1\na..c = 2")
    with pytest.raises(ConfigError):
        parse_config_text('{"unterminated": ')
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na.b = 2")  # scalar reused as a section


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


# -- substreams ----------------------------------------------------------------


def test_substreams_are_deterministic_and_distinct():
    assert substream_seed(7, "data") == substream_seed(7, "data")
    assert substream_seed(7, "data") != substream_seed(7, "mcmc")
    assert substream_seed(7, "data") != substream_seed(8, "data")

    a = np.random.default_rng(substream_seed(7, "data")).standard_normal(5)
    b = np.random.default_rng(substream_seed(7, "data")).standard_normal(5)
    c = np.random.default_rng(substream_seed(7, "rsvd")).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
