"""Catalog entries: closed-form expansions, truth flags, spec-string parsing."""

import hashlib

import numpy as np
import pytest

from univalence.catalog import from_spec, get, list_catalog, parse_complex, series_at
from univalence.errors import SeriesOverflowError
from univalence.series import ps_eval


def test_koebe_series_at_origin():
    s = series_at(get("koebe"), 0.0, 3)
    assert np.allclose(s.coeffs, [0, 1, 2, 3], atol=1e-14)


def test_identity_series_off_center():
    s = series_at(get("identity"), 0.3, 5)
    assert np.allclose(s.coeffs, [0.3, 1, 0, 0, 0, 0])


def test_exp_scale_series():
    s = series_at(get("exp_scale", k=4), 0.0, 2)
    assert np.allclose(s.coeffs, [1, 4, 8], atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_center_outside_disk_rejected():
    with pytest.raises(ValueError):
        series_at(get("koebe"), 1.2, 4)
    # a NaN center is refused as a center, not reported as an overflow
    with pytest.raises(ValueError, match="outside the open unit disk"):
        series_at(get("koebe"), complex("nan"), 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec,center", [("koebe", 0.3), ("sigma:zeta=0.9", -0.95 + 0.2j)])
def test_series_overflow_is_a_typed_refusal(spec, center):
    # 1/(1-a)^k overflows (koebe), or 1/(1+conj(zeta) a)^k underflows to a zero divisor (sigma)
    with pytest.raises(SeriesOverflowError, match="order 4096"):
        series_at(from_spec(spec), center, 4096)


#: every family at its defaults, with drawn parameters, and at the parameters where
#: a closed form degenerates (b = 0 and a = 0 leave the identity)
PIN_SPECS = (
    "identity", "koebe", "rotated_koebe", "bounded", "sigma", "cayley", "exp_scale", "quad_poly",
    "rotated_koebe:theta=-0.7", "bounded:b=0.5-0.6i", "bounded:b=-1", "bounded:b=0",
    "sigma:zeta=-0.4+0.35i", "exp_scale:k=4", "exp_scale:k=-1.3+2.2i",
    "quad_poly:a=0.3-0.45i", "quad_poly:a=0",
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entries_are_pinned_bit_for_bit():
    # one digest of every label, flag, note, Taylor coefficient and point value
    t = np.arange(257)
    points = 0.9 * np.sqrt(t / 256) * np.exp(2.399963229728653j * t)
    digest = hashlib.sha1()
    for spec in PIN_SPECS:
        fn = from_spec(spec)
        digest.update(f"{fn.label}|{fn.flags}|{fn.note}".encode())
        for center in (0.0, 0.3, -0.2 + 0.25j, 0.1 - 0.4j):
            digest.update(series_at(fn, center, 300).coeffs.tobytes())
        digest.update(np.asarray(fn.f(points), dtype=np.complex128).tobytes())
        digest.update(np.asarray(fn.df(points), dtype=np.complex128).tobytes())
    assert digest.hexdigest() == "e5fc28b54a903a073dee845b6c22f09bdd9338da"


# ------------------------------------------------------------------ flags


def test_koebe_flags():
    f = get("koebe").flags
    assert (f.locally_univalent_on_disk, f.univalent_on_disk, f.full_mapping) == (
        True,
        True,
        True,
    )


def test_exp_scale_univalence_threshold():
    assert get("exp_scale", k=4).flags.univalent_on_disk is False
    assert get("exp_scale", k=4).flags.locally_univalent_on_disk is True
    assert get("exp_scale", k=np.pi).flags.univalent_on_disk is True
    assert get("exp_scale", k=3.2).flags.univalent_on_disk is False


def test_quad_poly_local_univalence_threshold():
    assert get("quad_poly", a=0.6).flags.locally_univalent_on_disk is False
    assert get("quad_poly", a=0.5).flags.locally_univalent_on_disk is True
    assert get("quad_poly", a=0.5).flags.univalent_on_disk is True


def test_flag_implications_hold_for_all_entries():
    for fn in list_catalog():
        f = fn.flags
        if f.univalent_on_disk:
            assert f.locally_univalent_on_disk
        if f.full_mapping:
            assert f.univalent_on_disk


def test_bounded_parameter_range():
    with pytest.raises(ValueError):
        get("bounded", b=1.5)
    get("bounded", b=1.0)  # boundary allowed


def test_sigma_parameter_range():
    with pytest.raises(ValueError):
        get("sigma", zeta=1.0)


# ------------------------------------------------------- expansion fidelity


@pytest.mark.parametrize("fn", list_catalog(), ids=lambda f: f.label)
def test_series_matches_closed_form(fn):
    s = series_at(fn, 0.0, 48)
    for w in (0.5, -0.31, 0.3 + 0.4j, -0.25 - 0.35j, 0.05j):
        assert abs(ps_eval(s, w) - complex(fn.f(w))) <= 1e-8


@pytest.mark.parametrize("fn", list_catalog(), ids=lambda f: f.label)
def test_recentered_series_agree_on_overlap(fn):
    s1 = series_at(fn, 0.0, 48)
    s2 = series_at(fn, 0.25, 40)
    for w in (0.1, 0.2 + 0.1j, 0.35, 0.12 - 0.08j):
        assert abs(ps_eval(s1, w) - ps_eval(s2, w)) <= 1e-8


@pytest.mark.parametrize("fn", list_catalog(), ids=lambda f: f.label)
def test_derivative_closed_form_consistent(fn):
    # f' from the expansion versus the closed form
    for z in (0.0, 0.2 - 0.3j):
        s = series_at(fn, z, 8)
        assert abs(s.coeffs[1] - complex(fn.df(z))) <= 1e-12


# ------------------------------------------------------------------ parsing


def test_parse_complex_forms():
    assert parse_complex("0.4+0i") == 0.4
    assert parse_complex("4") == 4.0
    assert parse_complex("-0.2-0.35i") == -0.2 - 0.35j
    assert parse_complex("1e-3i") == 1e-3j
    with pytest.raises(ValueError):
        parse_complex("junk")


def test_from_spec_round_trip():
    fn = from_spec("exp_scale:k=4")
    assert fn.id == "exp_scale" and fn.params["k"] == 4.0
    fn = from_spec("quad_poly:a=0.4+0i")
    assert fn.params["a"] == 0.4
    assert from_spec("koebe").id == "koebe"


def test_from_spec_errors_name_the_flag():
    # a plain ValueError: only the CLI knows the spec came from --fn
    for spec in ("nonsense", "koebe:bogus=1", "exp_scale:k", "exp_scale:k=junk", "exp_scale:k=4,k=5"):
        with pytest.raises(ValueError) as err:
            from_spec(spec)
        assert type(err.value) is ValueError
        assert "--fn" not in str(err.value)
