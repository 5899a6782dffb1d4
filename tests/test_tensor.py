import numpy as np
import numpy.testing as npt
import pytest

import oracle
from emoconv import tensor as T


def _t(shape, values, requires_grad=False):
    return T.Tensor(np.asarray(values, dtype=float).reshape(shape), requires_grad)


def test_elementwise_known_values():
    x = _t((3,), [0.0, 1.0, -1.0])
    npt.assert_allclose(oracle.sigmoid(x).values, [0.5, 1 / (1 + np.exp(-1)), 1 / (1 + np.exp(1))])
    npt.assert_allclose(T.tanh(x).values, np.tanh([0, 1, -1]))
    npt.assert_allclose(oracle.add(x, x).values, [0, 2, -2])
    npt.assert_allclose(oracle.scale(x, -2.0).values, [0, -2, 2])
    with pytest.raises(ValueError):
        oracle.mul(x, _t((2,), [1.0, 2.0]))   # shapes differ
    with pytest.raises(ValueError):
        oracle.add(x, _t((1,), [1.0]))        # no size-1 broadcasting
    with pytest.raises(ValueError):
        oracle.log(_t((2,), [1.0, 0.0]))


def test_sigmoid_saturates_without_overflow():
    x = _t((2,), [1000.0, -1000.0])
    with np.errstate(over="raise"):
        out = oracle.sigmoid(x).values
    npt.assert_allclose(out, [1.0, 0.0])


def test_softmax_rows_known_and_stable():
    z = _t((2, 2), [0.0, 0.0, 1000.0, 1000.0])
    out = T.softmax_rows(z).values
    npt.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])
    big = _t((1, 3), [1000.0, 999.0, -1000.0])
    out = T.softmax_rows(big).values
    assert np.isfinite(out).all()
    npt.assert_allclose(out.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        T.softmax_rows(_t((1, 2), [np.inf, 0.0]))


def test_backward_sum_and_square():
    x = _t((3,), [1.0, -2.0, 3.0], requires_grad=True)
    T.backward(oracle.sum_all(x))
    npt.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    T.reset_grads([x])
    T.backward(oracle.sum_all(oracle.mul(x, x)))
    npt.assert_allclose(x.grad, 2.0 * x.values)


def test_backward_accumulates_until_reset():
    x = _t((2,), [1.0, 2.0], requires_grad=True)
    T.backward(oracle.sum_all(x))
    T.backward(oracle.sum_all(x))
    npt.assert_array_equal(x.grad, [2.0, 2.0])
    T.reset_grads([x])
    assert x.grad is None
    npt.assert_array_equal(T.grad_of(x), [0.0, 0.0])


def test_a_second_backward_through_one_graph_raises_and_changes_no_gradient():
    x = _t((2,), [1.0, 2.0], requires_grad=True)
    loss = oracle.sum_all(oracle.mul(x, x))
    T.backward(loss)
    assert loss.node.parents == () and loss.item() == 5.0
    with pytest.raises(RuntimeError, match="already ran"):
        T.backward(loss)
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar_and_skips_unreachable():
    x = _t((2,), [1.0, 2.0], requires_grad=True)
    unused = _t((2,), [5.0, 5.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(oracle.mul(x, x))
    T.backward(oracle.sum_all(x))
    assert unused.grad is None
    npt.assert_array_equal(T.grad_of(unused), [0.0, 0.0])


def test_shared_subexpression_gets_summed_gradient():
    # y = sum(x + x) so dy/dx = 2 along every coordinate
    x = _t((3,), [0.5, 1.5, -0.5], requires_grad=True)
    T.backward(oracle.sum_all(oracle.add(x, x)))
    npt.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), requires_grad=True)
        h = T.tanh(T.linear_rows(x, w, b))
        loss = oracle.sum_all(oracle.mul(h, h))
        T.backward(loss)
        return x.grad.copy(), w.grad.copy(), b.grad.copy()

    g1 = run()
    g2 = run()
    assert all((a == b).all() for a, b in zip(g1, g2))


def test_row_grad_sums_repeated_rows_as_a_scatter_into_zeros():
    rng = np.random.default_rng(12)
    rows = np.array([7, 2, 7, 0, 2, 9, 7, 0])
    values = rng.normal(size=(rows.size, 3)) * 10.0 ** rng.uniform(-8, 8, (rows.size, 1))
    values[[3, 7]] = [[-0.0, 1.0, -0.0], [-0.0, -1.0, 0.0]]  # row 0 sums to signed zeros
    grad = T.RowGrad(rows, values)
    want = np.zeros((10, 3))
    np.add.at(want, rows, values)
    npt.assert_array_equal(grad.rows, [0, 2, 7, 9])
    assert grad.values.tobytes() == want[[0, 2, 7, 9]].tobytes()
    dense = np.zeros((10, 3))
    grad.add_to(dense)
    assert dense.tobytes() == want.tobytes()
    # sorted and unique already: the arrays are kept, -0.0 included
    own = values[:4].copy()
    kept = T.RowGrad(grad.rows, own)
    assert kept.rows is grad.rows and kept.values is own


def test_finite_diff_check_simple_quadratic():
    x = _t((4,), [0.3, -1.2, 0.7, 2.0], requires_grad=True)
    err = T.finite_diff_check(lambda ps: oracle.sum_all(oracle.mul(ps[0], ps[0])), [x], eps=1e-5)
    assert err < 1e-4


def test_finite_diff_check_rejects_nondeterministic_f():
    rng = np.random.default_rng(0)
    x = _t((2,), [1.0, 2.0], requires_grad=True)

    def noisy(ps):
        return oracle.scale(oracle.sum_all(ps[0]), 1.0 + rng.uniform(0, 1e-3))

    with pytest.raises(ValueError):
        T.finite_diff_check(noisy, [x], eps=1e-5)
    with pytest.raises(ValueError):
        T.finite_diff_check(lambda ps: oracle.sum_all(ps[0]), [x], eps=0.0)


def _rand(rng, shape):
    return T.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


def _separated(rng, shape):
    # values with pairwise gaps >> fd eps, so argmax/kink ops stay stable
    vals = np.linspace(-1.0, 1.0, int(np.prod(shape)))
    return T.Tensor(rng.permutation(vals).reshape(shape), requires_grad=True)


# One scalar-valued graph per op; finite differences validate every backward
# rule through the same public entry point the training loop uses.  The
# generic ops (add, mul, log, sum_all, ...) are the oracle's: its loss chains,
# built from them, are the reference the loss nodes must match.
OP_CASES = {
    "linear_rows": lambda rng: ([_rand(rng, (5, 3)), _rand(rng, (2, 3)), _rand(rng, (2,))],
                                lambda ps: oracle.sum_all(T.tanh(T.linear_rows(*ps)))),
    # the packed [N x k] cells of a batch with lengths 1, 4 and 3
    "linear_rows_batched": lambda rng: ([_rand(rng, (8, 3)), _rand(rng, (2, 3)),
                                         _rand(rng, (2,))],
                                        lambda ps: oracle.sum_all(T.tanh(T.linear_rows(*ps)))),
    "add": lambda rng: ([_rand(rng, (3, 3)), _rand(rng, (3, 3))],
                        lambda ps: oracle.sum_all(T.tanh(oracle.add(ps[0], ps[1])))),
    "sub": lambda rng: ([_rand(rng, (6,)), _rand(rng, (6,))],
                        lambda ps: oracle.sum_all(T.tanh(oracle.sub(ps[0], ps[1])))),
    "mul": lambda rng: ([_rand(rng, (2, 5)), _rand(rng, (2, 5))],
                        lambda ps: oracle.sum_all(oracle.mul(ps[0], ps[1]))),
    "scale": lambda rng: ([_rand(rng, (7,))],
                          lambda ps: oracle.sum_all(oracle.scale(ps[0], -1.7))),
    "sigmoid": lambda rng: ([_rand(rng, (8,))],
                            lambda ps: oracle.sum_all(oracle.sigmoid(ps[0]))),
    "tanh": lambda rng: ([_rand(rng, (8,))],
                         lambda ps: oracle.sum_all(T.tanh(ps[0]))),
    "exp": lambda rng: ([_rand(rng, (8,))],
                        lambda ps: oracle.sum_all(oracle.exp(ps[0]))),
    "softplus": lambda rng: ([T.Tensor(rng.uniform(-40.0, 40.0, (8,)), requires_grad=True)],
                             lambda ps: oracle.sum_all(oracle.softplus(ps[0]))),
    "sum_rows": lambda rng: ([_rand(rng, (3, 4))],
                             lambda ps: oracle.sum_all(T.tanh(oracle.sum_rows(ps[0])))),
    "log": lambda rng: ([T.Tensor(rng.uniform(0.5, 2.0, (8,)), requires_grad=True)],
                        lambda ps: oracle.sum_all(oracle.log(ps[0]))),
    "relu": lambda rng: ([_separated(rng, (8,))],
                         lambda ps: oracle.sum_all(T.relu(ps[0]))),
    "reshape": lambda rng: ([_rand(rng, (3, 4))],
                            lambda ps: oracle.sum_all(T.tanh(oracle.reshape(ps[0], (2, 6))))),
    "concat": lambda rng: ([_rand(rng, (2, 3)), _rand(rng, (2, 2))],
                           lambda ps: oracle.sum_all(T.tanh(T.concat(ps, axis=1)))),
    "concat_negative_axis": lambda rng: ([_rand(rng, (3, 2)), _rand(rng, (1, 2))],
                                         lambda ps: oracle.sum_all(
                                             T.tanh(T.concat(ps, axis=-2)))),
    "take_per_row": lambda rng: ([_rand(rng, (4, 5))],
                                 lambda ps: oracle.sum_all(
                                     T.tanh(oracle.take_per_row(ps[0], [1, 0, 4, 2])))),
    # mixed lengths: a length-1 row, a row at the maximum, one in between
    "max_over_time": lambda rng: ([_separated(rng, (11, 2))],
                                  lambda ps: oracle.sum_all(
                                      T.tanh(T.max_over_time(ps[0], [1, 6, 4])))),
    "sum_all": lambda rng: ([_rand(rng, (3, 3))],
                            lambda ps: T.tanh(oracle.scale(oracle.sum_all(ps[0]), 0.3))),
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_every_op_matches_finite_differences(op):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params, f = OP_CASES[op](rng)
        err = T.finite_diff_check(f, params, eps=1e-5)
        assert err < 1e-4, f"{op} seed {seed}: max rel err {err}"


def test_composite_graph_matches_finite_differences():
    # a miniature of the real model: project, pool, the loss's log-softmax
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        cells = T.Tensor(rng.uniform(-0.5, 0.5, (6, 4)), requires_grad=True)
        w = T.Tensor(rng.uniform(-0.5, 0.5, (3, 4)), requires_grad=True)
        b = T.Tensor(rng.uniform(-0.1, 0.1, (3,)), requires_grad=True)

        def f(ps):
            x, wp, bp = ps
            h = T.tanh(T.linear_rows(x, wp, bp))
            pooled = T.max_over_time(h, [4, 2])
            return oracle.weighted_cross_entropy_chain(pooled, [1, 2], np.ones(3))

        err = T.finite_diff_check(f, [cells, w, b], eps=1e-5)
        assert err < 1e-4, f"seed {seed}: max rel err {err}"


def test_shape_errors_are_loud():
    m = _t((2, 3), range(6))
    v = _t((3,), [1, 2, 3])
    with pytest.raises(ValueError):
        T.concat([m, _t((3, 3), range(9))], axis=1)
    with pytest.raises(ValueError):
        oracle.take_per_row(m, [0, 3])
    with pytest.raises(ValueError):
        T.linear_rows(m, m, v)
    with pytest.raises(ValueError):
        oracle.reshape(m, (4, 2))
    cells = _t((4, 1), range(4))
    with pytest.raises(ValueError):
        T.max_over_time(_t((2, 2, 1), range(4)), [2, 2])  # a grid, not packed
    with pytest.raises(ValueError):
        T.max_over_time(cells, [0, 4])      # empty row
    with pytest.raises(ValueError):
        T.max_over_time(cells, [1, 4])      # more cells than the tensor has
    with pytest.raises(ValueError):
        T.max_over_time(cells, [3])         # fewer
    with pytest.raises(ValueError):
        T.max_over_time(cells, [])          # no rows
    with pytest.raises(ValueError):
        T.max_over_time(cells, [[2, 2]])    # not a vector of lengths


def test_masked_max_known_values():
    cells = _t((4, 2), [1.0, 5.0, 7.0, 2.0, 9.0, 0.0, 8.0, 3.0])
    # row 0 is its one cell; row 1 reduces the next three, per column
    npt.assert_array_equal(T.max_over_time(cells, [1, 3]).values,
                           [[1.0, 5.0], [9.0, 3.0]])
    # ties go to the first cell of the row, and a tie across rows is two maxima
    cells = T.Tensor(np.array([[3.0], [3.0], [1.0], [3.0], [3.0]]), requires_grad=True)
    T.backward(oracle.sum_all(T.max_over_time(cells, [3, 1, 1])))
    npt.assert_array_equal(cells.grad, [[1.0], [0.0], [0.0], [1.0], [1.0]])


def test_masked_max_nan_wins_its_column_and_takes_its_gradient():
    nan = np.nan
    cells = T.Tensor(np.array([[1.0, nan, 4.0], [nan, 2.0, 5.0], [3.0, nan, 6.0],
                               [0.0, 1.0, nan]]), requires_grad=True)
    pooled = T.max_over_time(cells, [3, 1])
    # row 0's first NaN per column pools, and a column without one its max
    npt.assert_array_equal(pooled.values, [[nan, nan, 6.0], [0.0, 1.0, nan]])
    T.backward(oracle.sum_all(pooled))
    npt.assert_array_equal(cells.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                        [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


def test_no_grad_records_no_graph():
    x = _t((2, 2), [1.0, 2.0, 3.0, 4.0], requires_grad=True)
    b = _t((2,), [0.5, -0.5], requires_grad=True)
    with T.no_grad():
        y = T.tanh(T.linear_rows(x, x, b))
    assert not y.requires_grad and y.node is None
    npt.assert_array_equal(y.values, np.tanh(x.values @ x.values.T + b.values))
    # recording resumes after the block, also when the block raised
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    z = oracle.sum_all(oracle.mul(x, x))
    assert z.requires_grad
    T.backward(z)
    npt.assert_array_equal(x.grad, 2.0 * x.values)
