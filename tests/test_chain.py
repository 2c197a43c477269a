import itertools
import math

import numpy as np
import pytest

import opcalc.chain as chain
import opcalc.torus as tor
from opcalc.besov import apply_symbol
from opcalc.chain import (DerivationSpec, ExpansionTerm, _apply_derivation,
                          chain_rule_residual, commutative_collapse, evaluate_expansion,
                          expand, faa_di_bruno_weights)
from opcalc.errors import BandOverflow, NonHermitianInput, SymbolDomainError
from opcalc.expr import parse_symbol
from opcalc.linalg import (HermitianOperator, eig_hermitian, func_calc, hilbert_schmidt_norm,
                           random_hermitian)
from opcalc.moi import MOIOperands, moi_schur
from opcalc.seeding import rng_for
from opcalc.symbols import SmoothSymbol


def as_dict(terms):
    return {(t.order, t.args): t.coeff for t in terms}


def expansion_of(F, u, terms, derivation):
    """evaluate_expansion of one term list, with u realized and diagonalized here."""
    u_op = HermitianOperator(tor.to_matrix(u)) if derivation.kind == "torus" else u
    args = list(dict.fromkeys(a for t in terms for a in t.args))
    derivatives = chain._derivative_matrices(u, args, derivation)
    return evaluate_expansion(F, u_op, eig_hermitian(u_op), derivatives, [terms])[0]


def test_expand_first_order():
    terms = expand((1,))
    assert as_dict(terms) == {(1, ((1,),)): 1}


def test_expand_second_order():
    assert as_dict(expand((2,))) == {(1, ((2,),)): 1, (2, ((1,), (1,))): 2}


def test_expand_third_order():
    expect = {(1, ((3,),)): 1, (2, ((1,), (2,))): 3, (2, ((2,), (1,))): 3,
              (3, ((1,), (1,), (1,))): 6}
    assert as_dict(expand((3,))) == expect


def test_expand_total_order_and_cap():
    for beta in ((4,), (2, 1), (1, 1, 1)):
        K = sum(beta)
        for t in expand(beta):
            assert sum(sum(a) for a in t.args) == K
            assert t.order <= K


def test_expand_axis_relabeling_covariant():
    base = expand((2, 1))
    swapped = expand((1, 2))

    def relabel(args):
        return tuple(tuple(reversed(a)) for a in args)

    lhs = {(t.order, relabel(t.args)): t.coeff for t in base}
    rhs = as_dict(swapped)
    assert lhs == rhs


def test_expand_differentiation_order_free():
    # mixed partials commute: both generation orders give the same table
    e1 = as_dict(expand((1, 1)))
    # generate manually in the reversed axis order by relabeling twice
    e2 = {(o, tuple(tuple(reversed(a)) for a in args)): c
          for (o, args), c in as_dict(expand((1, 1))).items()}
    assert e1 == e2


def brute_set_partition_counts(K):
    counts = {}
    # enumerate assignments and keep canonical first-occurrence labellings
    for assign in itertools.product(range(K), repeat=K):
        seen = {}
        canon = []
        for a in assign:
            if a not in seen:
                seen[a] = len(seen)
            canon.append(seen[a])
        if tuple(canon) != assign:
            continue
        sizes = tuple(sorted(np.bincount(canon)[np.bincount(canon) > 0].tolist()))
        counts[sizes] = counts.get(sizes, 0) + 1
    return counts


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_commutative_weights_match_set_partitions(K):
    collapsed = commutative_collapse(expand((K,)))
    oracle = brute_set_partition_counts(K) if K <= 5 else faa_di_bruno_weights(K)
    assert collapsed == oracle


def test_faa_di_bruno_against_enumeration():
    for K in (1, 2, 3, 4, 5):
        assert faa_di_bruno_weights(K) == brute_set_partition_counts(K)


def test_evaluate_square_first_order():
    rng = rng_for(0, "ev")
    u = random_hermitian(rng, 6)
    d = random_hermitian(rng, 6)
    spec = DerivationSpec("inner", (d,))
    terms = expand((1,))
    out = expansion_of(parse_symbol("x**2"), u, terms, spec)
    du = d.data @ u.data - u.data @ d.data
    expect = du @ u.data + u.data @ du
    assert np.linalg.norm(out - expect) <= 1e-12 * max(1, np.linalg.norm(expect))


def test_evaluate_constant_symbol_zero():
    rng = rng_for(1, "ev0")
    u = random_hermitian(rng, 5)
    d = random_hermitian(rng, 5)
    out = expansion_of(parse_symbol("2 + 0*x"), u, expand((2,)),
                       DerivationSpec("inner", (d,)))
    assert np.linalg.norm(out) <= 1e-12


def test_evaluate_diagonal_reduces_to_scalar():
    # all anchors and arguments commute: entrywise scalar chain rule
    rng = rng_for(2, "diag")
    lam = rng.uniform(0.2, 2.0, size=5)
    u = HermitianOperator(np.diag(lam))
    d = HermitianOperator(np.diag(rng.uniform(-1, 1, size=5)))
    F = parse_symbol("x**3")
    spec = DerivationSpec("inner", (d,))
    r, = chain_rule_residual(F, u, [(2,)], spec)
    assert r <= 1e-13


def test_chain_rule_inner_polynomials_exact():
    for seed, (deg, K) in enumerate(((2, 1), (3, 2), (5, 3), (4, 2))):
        rng = rng_for(seed, "cr")
        u = random_hermitian(rng, 16)
        d = random_hermitian(rng, 16)
        r, = chain_rule_residual(parse_symbol(f"x**{deg}"), u, [(K,)],
                                 DerivationSpec("inner", (d,)))
        assert r <= 1e-12, (deg, K, r)


def test_chain_rule_square_commutator_identity():
    rng = rng_for(3, "sq")
    u = random_hermitian(rng, 8)
    d = random_hermitian(rng, 8)
    assert chain_rule_residual(parse_symbol("x**2"), u, [(1,)],
                               DerivationSpec("inner", (d,)))[0] <= 1e-13


def test_chain_rule_zero_element():
    d = random_hermitian(rng_for(4, "z"), 6)
    u = HermitianOperator(np.zeros((6, 6)))
    assert chain_rule_residual(parse_symbol("x**3"), u, [(1,)],
                               DerivationSpec("inner", (d,))) == [0.0]


def test_chain_rule_multiaxis_commuting():
    rng = rng_for(5, "ma")
    u = random_hermitian(rng, 8)
    d1 = HermitianOperator(np.diag(rng.standard_normal(8)))
    d2 = HermitianOperator(np.diag(rng.standard_normal(8)))
    spec = DerivationSpec("inner", (d1, d2))
    F = parse_symbol("x**3 + 0.5*x**2")
    assert max(chain_rule_residual(F, u, [(1, 1), (2, 1)], spec)) <= 1e-12


def test_chain_rule_smooth_symbol():
    rng = rng_for(6, "sm")
    u = random_hermitian(rng, 8)
    d = random_hermitian(rng, 8)
    r, = chain_rule_residual(parse_symbol("sin(x)"), u, [(2,)], DerivationSpec("inner", (d,)))
    assert r <= 1e-6  # eigensolver-limited for non-polynomial symbols


def test_chain_rule_torus():
    alg = tor.TorusAlgebra(d=2, N=32, theta_num=1)
    u = tor.random_element(alg, rng_for(7, "tor"), band=4, decay=2.0)
    spec = DerivationSpec("torus")
    betas = [(1, 0), (2, 0), (1, 1)]
    assert max(chain_rule_residual(parse_symbol("x**3"), u, betas, spec)) <= 1e-9


def per_term_expansion(F, u, terms, derivation):
    """evaluate_expansion with each term's own F^[l] and arguments, built by moi_schur."""
    if derivation.kind == "torus":
        u_mat = HermitianOperator(tor.to_matrix(u))
        def arg(a):
            return tor.to_matrix(tor.derive_multi(u, a))
    else:
        u_mat = u
        def arg(a):
            return _apply_derivation(u_mat, a, derivation)
    dec = eig_hermitian(u_mat)
    total = np.zeros_like(u_mat.data)
    for t in terms:
        ops = MOIOperands((u_mat,) * (t.order + 1), tuple(arg(a) for a in t.args))
        total = total + t.coeff * moi_schur(F, ops, decompositions=[dec] * (t.order + 1))
    return total


@pytest.mark.parametrize("case", ["inner-x**5", "inner-tanh(x)", "torus-x**3"])
def test_shared_phi_keeps_bits(case):
    kind, expr = case.split("-", 1)
    F = parse_symbol(expr)
    if kind == "inner":
        rng = rng_for(9, "share", expr)
        u = random_hermitian(rng, 8)
        spec = DerivationSpec("inner", (random_hermitian(rng, 8),))
        beta = (3,)
    else:
        alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
        u = tor.random_element(alg, rng_for(9, "share-torus"), band=3, decay=2.0)
        spec = DerivationSpec("torus")
        beta = (2, 1)
    terms = expand(beta)
    assert np.array_equal(expansion_of(F, u, terms, spec),
                          per_term_expansion(F, u, terms, spec))


def per_beta_residual(F, u, beta, derivation):
    """The residual as computed one multi-index at a time: F(u) by func_calc or
    apply_symbol, and the expansion with its own eigendecomposition of u, its
    own F^[l] per order (none for a polynomial, whose MOI contracts its h_k
    recurrence, as in evaluate_expansion) and its own realization of each d^a u."""
    terms = expand(beta)
    if derivation.kind == "torus":
        lhs = tor.to_matrix(tor.derive_multi(apply_symbol(F, u), beta))
        u_mat = HermitianOperator(tor.to_matrix(u))
        args_of = {a: tor.to_matrix(tor.derive_multi(u, a)) for t in terms for a in t.args}
    else:
        lhs = _apply_derivation(func_calc(u, F), beta, derivation)
        u_mat = u
        args_of = {a: _apply_derivation(u, a, derivation) for t in terms for a in t.args}
    dec = eig_hermitian(u_mat)
    phi_of = {}
    if F.poly_coeffs is None:
        phi_of = {l: chain.divided_diff_tensor(F, [dec.eigenvalues] * (l + 1))
                  for l in {t.order for t in terms}}
    rhs = np.zeros_like(u_mat.data)
    for t in terms:
        ops = MOIOperands((u_mat,) * (t.order + 1), tuple(args_of[a] for a in t.args))
        rhs = rhs + t.coeff * moi_schur(F, ops, decompositions=[dec] * (t.order + 1),
                                        phi=phi_of.get(t.order))
    scale = 1.0 + hilbert_schmidt_norm(lhs) + hilbert_schmidt_norm(rhs)
    return hilbert_schmidt_norm(lhs - rhs) / scale


@pytest.mark.parametrize("expr", ["x**3", "x**5", "x**4 + x**2", "tanh(x)"])
def test_multi_beta_residual_keeps_bits_inner(expr):
    rng = rng_for(10, "multi", expr)
    u = random_hermitian(rng, 12)
    spec = DerivationSpec("inner", (random_hermitian(rng, 12),))
    betas = [(1,), (2,), (3,)]
    got = chain_rule_residual(parse_symbol(expr), u, betas, spec)
    assert got == [per_beta_residual(parse_symbol(expr), u, b, spec) for b in betas]


@pytest.mark.parametrize("expr,band", [("x**3", 4), ("x**2", 4), ("x**5", 2)])
def test_multi_beta_residual_keeps_bits_torus(expr, band):
    alg = tor.TorusAlgebra(d=2, N=32, theta_num=1)
    u = tor.random_element(alg, rng_for(11, "multi-torus", expr), band=band, decay=2.0)
    spec = DerivationSpec("torus")
    betas = [(1, 0), (2, 0), (1, 1), (2, 1)]
    got = chain_rule_residual(parse_symbol(expr), u, betas, spec)
    assert got == [per_beta_residual(parse_symbol(expr), u, b, spec) for b in betas]


def test_one_decomposition_and_one_tensor_per_order(monkeypatch):
    calls = {"eig": 0, "phi": []}
    eig, tensor = chain.eig_hermitian, chain.divided_diff_tensor

    def counted_eig(h):
        calls["eig"] += 1
        return eig(h)

    def counted_tensor(F, spectra):
        calls["phi"].append(len(spectra) - 1)
        return tensor(F, spectra)

    monkeypatch.setattr(chain, "eig_hermitian", counted_eig)
    monkeypatch.setattr(chain, "divided_diff_tensor", counted_tensor)
    # a polynomial builds no tensor: its MOIs contract the h_k recurrence
    for expr, orders in (("tanh(x)", [1, 2, 3]), ("x**4", [])):
        calls["eig"], calls["phi"] = 0, []
        rng = rng_for(12, "count")
        u = random_hermitian(rng, 8)
        chain_rule_residual(parse_symbol(expr), u, [(1,), (2,), (3,)],
                            DerivationSpec("inner", (random_hermitian(rng, 8),)))
        assert calls["eig"] == 1
        assert sorted(calls["phi"]) == orders


def test_chain_rule_non_real_symbol_raises():
    # F(u) comes from the shared decomposition, which keeps func_calc's real-value test
    rng = rng_for(13, "complex")
    u = random_hermitian(rng, 6)
    F = SmoothSymbol(func=lambda x: np.exp(1j * x), derivs=(lambda x: 1j * np.exp(1j * x),),
                     check=False)
    with pytest.raises(SymbolDomainError):
        chain_rule_residual(F, u, [(1,)], DerivationSpec("inner", (random_hermitian(rng, 6),)))


def test_chain_rule_torus_band_guard():
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    u = tor.random_element(alg, rng_for(8, "guard"), band=6, decay=0.0)
    with pytest.raises(BandOverflow):
        chain_rule_residual(parse_symbol("x**5"), u, [(1, 0)], DerivationSpec("torus"))


@pytest.mark.parametrize("expr", ["x**4 + x**2", "tanh(x)"])
def test_stacked_inner_residual_equals_single_calls(expr):
    # one stack of members, each with its own generator, gives each member
    # the bits of its own call
    F = parse_symbol(expr)
    rng = rng_for(14, "stack-inner", expr)
    pairs = [(random_hermitian(rng, 12), random_hermitian(rng, 12)) for _ in range(4)]
    u, dgen = (HermitianOperator(np.stack([h.data for h in side])) for side in zip(*pairs))
    betas = [(1,), (2,), (3,)]
    got = chain_rule_residual(F, u, betas, DerivationSpec("inner", (dgen,)))
    assert got == [chain_rule_residual(F, x, betas, DerivationSpec("inner", (d,))) for x, d in pairs]


def test_stacked_torus_residual_equals_single_calls():
    alg = tor.TorusAlgebra(d=2, N=32, theta_num=1)
    members = [tor.random_element(alg, rng_for(i, "stack-torus"), band=4, decay=2.0) for i in range(3)]
    u = tor.TorusElement(alg, np.stack([x.coeffs for x in members]))
    betas = [(1, 0), (2, 0), (1, 1), (2, 1)]
    F, spec = parse_symbol("x**3"), DerivationSpec("torus")
    assert chain_rule_residual(F, u, betas, spec) == [chain_rule_residual(F, x, betas, spec) for x in members]


def test_stacked_errors_carry_the_single_call_message():
    # a stack fails as its failing member's own call does
    rng = rng_for(15, "stack-bad")
    good = [random_hermitian(rng, 6).data for _ in range(2)]
    bad = good[0] + 1e-6 * rng.standard_normal((6, 6))
    spec = DerivationSpec("inner", (random_hermitian(rng, 6),))
    with pytest.raises(NonHermitianInput) as single:
        chain_rule_residual(parse_symbol("x**3"), bad, [(1,)], spec)
    with pytest.raises(NonHermitianInput) as stacked:
        chain_rule_residual(parse_symbol("x**3"), np.stack([good[1], bad, good[0]]), [(1,)], spec)
    assert str(stacked.value) == str(single.value)
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    inside = tor.random_element(alg, rng_for(8, "guard-ok"), band=1, decay=2.0)
    leaks = tor.random_element(alg, rng_for(8, "guard"), band=6, decay=0.0)
    F, spec = parse_symbol("x**5"), DerivationSpec("torus")
    assert chain_rule_residual(F, inside, [(1, 0)], spec)[0] <= 1e-9
    with pytest.raises(BandOverflow) as single:
        chain_rule_residual(F, leaks, [(1, 0)], spec)
    with pytest.raises(BandOverflow) as stacked:
        chain_rule_residual(F, tor.TorusElement(alg, np.stack([inside.coeffs, leaks.coeffs])), [(1, 0)], spec)
    assert str(stacked.value) == str(single.value)


def test_expansion_term_validation():
    with pytest.raises(ValueError):
        ExpansionTerm(order=2, args=((1,),), coeff=1)
    with pytest.raises(ValueError):
        ExpansionTerm(order=1, args=((0,),), coeff=1)
