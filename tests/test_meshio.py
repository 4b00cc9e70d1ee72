"""The numpy formatter writes exactly "%.9g" and "%.12g" (NaN is an empty
slot at 12 digits, the CSV width), and an OBJ's chunks are the same bytes
on both paths of the one float-table writer (the "%" blocks below
meshio._VECTOR_MIN_CELLS, numpy from it up, each forced here by setting
that constant) at every grid size."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlab import meshio
from wlab.cyclic import build_riemann_type
from wlab.errors import NonFiniteInput
from wlab.generators import gen_fixture
from wlab.surface import ParamSurface, evaluate_jet
from conftest import generic_riemann_type


DIGITS = [9, 12]


def vector_tokens(values, digits):
    slots = meshio._g_slots(np.array(values, dtype=float), digits)
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in slots]


def assert_g(values, digits):
    spec = "%%.%dg" % digits
    expected = ["" if x != x and digits == 12 else spec % x for x in values]
    assert vector_tokens(values, digits) == expected


def assert_g9(values):
    assert_g(values, 9)


def with_ulps(x, ulps=1):
    """x and its neighbours up to ulps units in the last place away."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def signed(values):
    return values + [-x for x in values]


def test_powers_of_ten_and_neighbours():
    assert_g9(signed([y for k in range(-22, 23) for y in with_ulps(float("1e%d" % k))]))


@pytest.mark.parametrize("d", [100000000, 123456789, 314159265, 500000000, 999999998])
def test_rounding_ties_and_near_ties(d):
    """(d + 0.5) 10**(k - 8) sits on a rounding tie of the 9th digit."""
    values = [float("%d.5e%d" % (d, k - 8)) for k in range(-22, 23)]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_carry_into_next_exponent():
    values = [float("999999999.5e%d" % k) for k in range(-22, 23)]
    values += [float("999999999.4999e%d" % k) for k in range(-22, 23)]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_switch_between_fixed_and_exponent_notation():
    values = [1e-4, 9.99999999e-5, 9.999999995e-5, 9.999999994e-5, 1.00000001e-4,
              999999999.0, 999999999.4, 999999999.5, 999999999.6, 1e9, 1.00000001e9,
              123456789.0, 12345678.9, 0.0001, 0.001234, 120000.0, 1.2e8, 1.2e9]
    assert_g9(signed([y for x in values for y in with_ulps(x, 2)]))


def test_extremes_and_specials():
    assert_g9([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-21, 1e21, 9.9999999999e20, 0.0, -0.0,
               math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 2.0 ** 60, 3.0 ** -40])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float(values):
    assert_g9(values)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(10 ** 8, 10 ** 9 - 1), k=st.integers(-24, 24), ulps=st.integers(-3, 3))
def test_near_ties(d, k, ulps):
    x = float("%d.5e%d" % (d, k - 8))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert_g9([x, -x])


@pytest.mark.parametrize("digits", DIGITS)
def test_powers_of_ten_and_two_ulps_at_both_widths(digits):
    assert_g(signed([y for k in range(-22, 23) for y in with_ulps(float("1e%d" % k), 2)]), digits)


def _ties(d, digits):
    """(d + 0.5) 10**(k - digits + 1), on a rounding tie of the last digit,
    for k in -22..22."""
    return [float("%d.5e%d" % (d, k - digits + 1)) for k in range(-22, 23)]


@pytest.mark.parametrize("digits", DIGITS)
def test_ties_near_ties_and_carry_at_both_widths(digits):
    """Ties of the last kept digit two ulps either way, for mantissas with
    leading, inner and trailing zeros and nines, and 99...9.5 10**k, which
    carries into the next exponent."""
    low = 10 ** (digits - 1)
    mantissas = [low, low + 1, 123456789123 // 10 ** (12 - digits), 5 * low, 10 * low - 2,
                 10 * low - 1, low + 10 ** (digits // 2), 9 * low + 99]
    values = [x for d in mantissas for x in _ties(d, digits)]
    values += [float("%d.4999e%d" % (10 * low - 1, k)) for k in range(-22, 23)]
    assert_g(signed([y for x in values for y in with_ulps(x, 2)]), digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_notation_switches_at_both_widths(digits):
    """Exponent notation below 1e-4 and from 10**digits up; the rounding
    carry of 9.99...95e-5 and of 10**digits - 0.5 crosses the switch."""
    nines = 10 ** digits - 1
    values = [1e-5, 1e-4, float("%de-%d" % (nines, digits + 4)), float("%d.5e-%d" % (nines, digits + 4)),
              float("%d.4e-%d" % (nines, digits + 4)), float(nines), nines + 0.4, nines + 0.5,
              nines + 0.6, float(10 ** digits), float(10 ** digits + 10), float(10 ** (digits - 1)),
              10 ** (digits - 1) - 0.5, 0.0001234, 120000.0, 1.2 * 10 ** (digits - 1)]
    assert_g(signed([y for x in values for y in with_ulps(x, 2)]), digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_specials_at_both_widths(digits):
    """Subnormals, the extremes, |e| > 20 (formatted by "%"), signed zeros,
    infinities and NaN, alone and among regular values."""
    values = [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1e-21, 1e21, 9.99999999999e20, 1.00000000001e-21,
              -9.9999999999999e-21, 1e-20, 1e20, 0.0, -0.0, math.inf, -math.inf, math.nan,
              -math.nan, 1.0, -1.0, 0.5, 2.0 ** 60, 3.0 ** -40]
    assert_g(values, digits)
    assert_g(values[::-1] * 3, digits)


def test_nan_is_an_empty_slot_at_12_digits():
    slots = meshio._g_slots(np.array([math.nan, 1.0, -math.nan]), 12)
    assert slots.shape == (3, 24)
    assert not slots[[0, 2]].any()
    assert vector_tokens([math.nan], 9) == ["nan"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_float_at_12_digits(values):
    assert_g(values, 12)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(10 ** 11, 10 ** 12 - 1), k=st.integers(-24, 24), ulps=st.integers(-3, 3))
def test_near_ties_at_12_digits(d, k, ulps):
    x = float("%d.5e%d" % (d, k - 11))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert_g([x, -x], 12)


def exponent_off_by(monkeypatch, error):
    """_g_slots with every decimal exponent read off the top 12 bits one
    too high (error 1) or too low (-1), before the compare with the next
    power of ten; the index stays inside its sign's block."""
    real, block = meshio._g_layouts, 2 * meshio._EXP + 3

    def layouts(digits):
        tables = list(real(digits))
        start = tables[7]
        tables[7] = start - start % block + np.clip(start % block + int(error), 0, block - 2)
        return tuple(tables)
    monkeypatch.setattr(meshio, "_g_layouts", layouts)


@pytest.mark.parametrize("error", [-1.0, 1.0])
@pytest.mark.parametrize("digits", DIGITS)
def test_exponent_off_by_one_at_both_widths(monkeypatch, digits, error):
    """An exponent one too high or too low leaves the scaled value outside
    [10**(digits-1) - 0.5, 10**digits - 0.5); those values fall back to
    "%", except one whose mantissa rounds up to 10**digits, which one
    exponent too high writes as the same token."""
    exponent_off_by(monkeypatch, error)
    rng = np.random.default_rng(4)
    values = (rng.normal(size=300) * 10.0 ** rng.integers(-19, 19, size=300)).tolist()
    assert_g(values + [1.0, 1e5, 0.1, 10 ** digits - 0.3, math.nan, 0.0], digits)


@pytest.mark.parametrize("digits, most", [(9, 1), (12, 60)])
def test_regular_values_stay_in_the_kernel(monkeypatch, digits, most):
    """Nonzero finite values of either sign in [1e-20, 1e21) leave the
    numpy kernel for "%" only within 10**(digits-15) of a rounding tie:
    2e-6 of random values at 9 digits, 2e-3 at 12 (20 expected in 10,000).
    A wrong table still writes the same bytes through "%", so this is the
    test that sees it."""
    real, fallen = meshio._percent_slots, []

    def percent_slots(values, digits, width):
        fallen.extend(values.tolist())
        return real(values, digits, width)
    monkeypatch.setattr(meshio, "_percent_slots", percent_slots)
    rng = np.random.default_rng(11)
    values = rng.uniform(1, 10, size=10000) * 10.0 ** rng.integers(-20, 21, size=10000)
    values *= rng.choice([-1.0, 1.0], size=10000)
    assert_g(values.tolist(), digits)
    assert len(fallen) <= most, fallen[:5]


def test_every_sign_and_exponent_pattern():
    """+-2**(b - 1023) and its neighbours an ulp either way, for every
    biased exponent b = 1..2046 of a normal float: each top-12-bit pattern
    and each binade's edges, at both widths."""
    powers = [math.ldexp(1.0, b - 1023) for b in range(1, 2047)]
    values = signed([y for x in powers for y in with_ulps(x)])
    for digits in DIGITS:
        assert_g(values, digits)


def _random_mesh(rng, count):
    verts = rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-6, 7, size=(count, 1))
    return verts, rng.normal(size=(count, 3))


def obj_paths_agree(monkeypatch, verts, normals, nu, nv) -> bool:
    """The OBJ chunks with every section on numpy (a crossover of 0 cells)
    and with every section on "%" (a crossover above the table size)."""
    texts = []
    for min_cells in (0, verts.size + 1):
        monkeypatch.setattr(meshio, "_VECTOR_MIN_CELLS", min_cells)
        texts.append(b"".join(meshio._obj_chunks(verts, normals, nu, nv)))
    return texts[0] == texts[1]


SURFACES = {
    "sphere": lambda: gen_fixture("sphere", radius=2.0),
    "cylinder": lambda: gen_fixture("cylinder", radius=1.0),
    "torus": lambda: gen_fixture("torus", radius_major=2.0, radius_minor=1.0),
    "catenoid": lambda: gen_fixture("catenoid", radius=1.0),
    "riemann-type": lambda: build_riemann_type(generic_riemann_type()),
}
GRIDS = [(2, 2), (7, 31), (24, 24), (96, 96), (130, 65)]


@pytest.mark.parametrize("nu, nv", GRIDS)
def test_paths_agree_on_random_arrays(monkeypatch, nu, nv):
    verts, normals = _random_mesh(np.random.default_rng(nu * 1000 + nv), nu * nv)
    assert obj_paths_agree(monkeypatch, verts, normals, nu, nv)


@pytest.mark.parametrize("nu, nv", GRIDS)
@pytest.mark.parametrize("name", SURFACES)
def test_paths_agree_on_scenes(monkeypatch, name, nu, nv):
    mesh = meshio.surface_mesh(SURFACES[name](), nu, nv)
    assert obj_paths_agree(monkeypatch, *mesh, nu, nv)


def test_paths_agree_across_chunks_and_digit_groups(monkeypatch):
    """More lines than one chunk, and vertex numbers of five digits."""
    nu, nv = 3, 4 * meshio._OBJ_CHUNK_LINES + 7
    verts, normals = _random_mesh(np.random.default_rng(7), nu * nv)
    verts[::5] = [0.0, -0.0, math.nan]
    normals[::7] = [math.inf, -math.inf, 1e300]
    assert obj_paths_agree(monkeypatch, verts, normals, nu, nv)


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_exponent_off_by_one_still_g9(monkeypatch, error):
    """An exponent one too high or too low falls back to "%", except the
    carry of 999999999.7 into "1e+09"."""
    exponent_off_by(monkeypatch, error)
    rng = np.random.default_rng(3)
    assert_g9((rng.normal(size=200) * 10.0 ** rng.integers(-15, 15, size=200)).tolist()
              + [1.0, 1e5, 0.1, 999999999.7])


def test_failed_chunk_keeps_target_and_no_temp_file(tmp_path, monkeypatch):
    """An error while building the second chunk of a 96 x 96 OBJ leaves the
    old file as it was and removes the new one, which by then holds the
    first chunk: chunks go to the file as they are built."""
    target = tmp_path / "torus.obj"
    target.write_bytes(b"old\n")
    real, calls = meshio._g_slots, []

    def failing(x, digits):
        calls.append(digits)
        if len(calls) == 2:
            new, = (p for p in tmp_path.iterdir() if p.name.startswith(".wlab-"))
            assert new.name.endswith(".tmp") and new.stat().st_size > 0
            raise RuntimeError("second chunk")
        return real(x, digits)

    monkeypatch.setattr(meshio, "_g_slots", failing)
    with pytest.raises(RuntimeError, match="second chunk"):
        meshio.write_obj(target, SURFACES["torus"](), 96, 96)
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["torus.obj"]


@pytest.mark.parametrize("n", [96, 160])
def test_write_obj_peak_memory_is_the_mesh(tmp_path, n):
    """Writing an OBJ holds no whole text: the tracemalloc peak of write_obj
    exceeds that of surface_mesh on the same grid by less than 0.6 MB."""
    torus, path = SURFACES["torus"](), tmp_path / "torus.obj"

    def peak(call) -> float:
        call()      # the first call builds the cached tables
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    mesh = peak(lambda: meshio.surface_mesh(torus, n, n))
    assert peak(lambda: meshio.write_obj(path, torus, n, n)) - mesh < 0.6


def test_surface_mesh_peak_memory_is_the_one_jet():
    """surface_mesh evaluates p, Xu and Xv only: its tracemalloc peak on a
    256 x 256 torus is below 9 MiB (the full 2-jet peaked at 12.6 MiB)."""
    torus = gen_fixture("torus")
    meshio.surface_mesh(torus, 16, 16)
    tracemalloc.start()
    try:
        meshio.surface_mesh(torus, 256, 256)
        assert tracemalloc.get_traced_memory()[1] < 9 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_obj_checks_only_the_one_jet(tmp_path):
    """A surface whose Xuu is NaN on one grid row while p, Xu and Xv are
    finite: write_obj writes its OBJ, the torus's bytes, as it reads the
    1-jet only, while the 2-jet raises NonFiniteInput at that row's u."""
    torus, nu, nv = gen_fixture("torus"), 12, 10
    us, vs = meshio.obj_grid(torus, nu, nv)

    def jets(grid_us, grid_vs, order=2):
        parts = torus.partials(grid_us, grid_vs, order)
        if order == 1:
            return parts
        xuu = parts[3].copy()
        xuu[grid_us == us[5]] = np.nan
        return (*parts[:3], xuu, *parts[4:])

    surf = ParamSurface(torus.u_range, jets)
    meshio.write_obj(tmp_path / "nan.obj", surf, nu, nv)
    meshio.write_obj(tmp_path / "torus.obj", torus, nu, nv)
    assert (tmp_path / "nan.obj").read_bytes() == (tmp_path / "torus.obj").read_bytes()
    with pytest.raises(NonFiniteInput) as caught:
        evaluate_jet(surf, us, vs)
    assert str(caught.value) == f"jet non-finite at u = {us[5]}"


def _per_line_faces(nu, nv) -> bytes:
    lines = []
    for a in (i * nv + j + 1 for i in range(nu - 1) for j in range(nv - 1)):
        b, c, d = a + 1, a + nv, a + nv + 1
        lines.append("f %d//%d %d//%d %d//%d\n" % (a, a, b, b, d, d))
        lines.append("f %d//%d %d//%d %d//%d\n" % (a, a, d, d, c, c))
    return "".join(lines).encode()


# vertex counts 9/10, 99/100, 999/1,000, 9,999/10,000 and 99,999/100,000;
# nu = 2, nv = 2, and rows of more than one chunk (nv > 1,025)
FACE_GRIDS = [(3, 3), (2, 5), (9, 11), (10, 10), (27, 37), (8, 125), (3, 3333), (2, 5000),
              (9, 11111), (50000, 2), (2, 2), (2, 1025), (3, 1026), (1001, 3)]


@pytest.mark.parametrize("nu, nv", FACE_GRIDS)
def test_face_lines_are_the_per_line_text(nu, nv):
    """The face chunks join to the per-line "%d" text, each chunk whole
    lines and at most _OBJ_CHUNK_LINES of them."""
    chunks = list(meshio._face_lines(nu, nv))
    assert b"".join(chunks) == _per_line_faces(nu, nv)
    assert all(c.endswith(b"\n") and c.count(b"\n") <= meshio._OBJ_CHUNK_LINES for c in chunks)


def test_face_lines_peak_memory_is_a_chunk():
    """Draining the faces of a 1024 x 1024 grid (2 million lines, 95 MB of
    text) holds no more than a chunk's temporaries at a time."""
    list(meshio._face_lines(8, 8))      # the cached digit tables
    tracemalloc.start()
    try:
        for _ in meshio._face_lines(1024, 1024):
            pass
        assert tracemalloc.get_traced_memory()[1] < 2 * 2 ** 20
    finally:
        tracemalloc.stop()
