import numpy as np
import numpy.testing as npt
import pytest

import graphs
import oracle
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv.config import TrainConfig


def _bilstm(rng, input_size, hidden_size, num_layers):
    """The classifier's BiLSTM layers, as its table draws them: layer 0 reads
    ``input_size`` wide cells, each later layer 2*hidden."""
    config = TrainConfig(hidden_size=hidden_size, num_layers=num_layers, sentence_dim=0,
                         embedding_dim=input_size)
    emb = L.EmbeddingMatrix.from_array(np.zeros((2, input_size)))
    return rcnn.init_model(config, emb, rng).bilstm


def _bank(rng, dim, filters_per_size):
    """The fine-tuning CNN's filter bank, widths 1 to 3, as its table draws it."""
    emb = L.EmbeddingMatrix.from_array(np.zeros((2, dim)))
    return ft.build_finetune_model(emb, rng, filters_per_size).bank


def _fixed(*arrays):
    return tuple(T.Tensor(np.asarray(a, dtype=float), requires_grad=True) for a in arrays)


def _lookup_table(rows, frozen=False):
    table = L.EmbeddingMatrix.from_array(np.asarray(rows, dtype=float))
    table.table.requires_grad = not frozen
    return table


def test_embedding_lookup_padding_row_and_repeats():
    table = _lookup_table([[0, 0], [1, 2], [3, 4]])
    npt.assert_array_equal(L.embedding_lookup(table, [0]).values, [[0.0, 0.0]])

    out = L.embedding_lookup(table, [2, 2])
    npt.assert_array_equal(out.values, [[3, 4], [3, 4]])
    T.backward(oracle.sum_all(out))
    # both rows feed the same table row, so its gradient is the sum
    npt.assert_array_equal(T.grad_of(table.table), [[0, 0], [0, 0], [2, 2]])

    with pytest.raises(ValueError) as err:
        L.embedding_lookup(table, [3])
    assert "3" in str(err.value)
    with pytest.raises(ValueError):
        L.embedding_lookup(table, [])


def test_batched_lookup_skips_pad_and_checks_every_id():
    table = _lookup_table([[0, 0], [1, 2], [3, 4]])
    # the packed ids of a batch, one stray PAD among them
    out = L.embedding_lookup(table, np.array([1, 2, 0, 2]))
    assert out.shape == (4, 2)
    npt.assert_array_equal(out.values[2:], [[0, 0], [3, 4]])
    # gradient at PAD is dropped, so row 0 never moves
    T.backward(oracle.sum_all(out))
    npt.assert_array_equal(T.grad_of(table.table), [[0, 0], [1, 1], [2, 2]])

    with pytest.raises(ValueError) as err:
        L.embedding_lookup(table, np.array([1, 2, -4, 7]))
    assert str(err.value) == "token id -4 out of range for vocabulary of size 3"
    with pytest.raises(ValueError):
        L.embedding_lookup(table, np.array([[1, 2], [2, 0]]))  # a grid, not packed


def test_table_gradient_stays_row_sparse_until_a_dense_contribution():
    table = _lookup_table(np.arange(12.0).reshape(6, 2))
    both = T.concat([L.embedding_lookup(table, [2, 5, 2]),
                     L.embedding_lookup(table, [5, 1])], axis=0)
    T.backward(oracle.sum_all(both))
    grad = table.table.grad
    assert isinstance(grad, T.RowGrad)
    # both lookups merged: each row once, sorted, with its summed gradient
    npt.assert_array_equal(grad.rows, [1, 2, 5])
    npt.assert_array_equal(grad.values, [[1, 1], [2, 2], [2, 2]])
    want = [[0, 0], [1, 1], [2, 2], [0, 0], [0, 0], [2, 2]]
    npt.assert_array_equal(T.grad_of(table.table), want)

    T.backward(oracle.sum_all(oracle.mul(table.table, table.table)))  # a dense one on top
    assert isinstance(table.table.grad, np.ndarray)
    npt.assert_array_equal(table.table.grad, np.array(want) + 2 * table.table.values)


def test_batched_lookup_matches_finite_differences():
    rng = np.random.default_rng(12)
    table = L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (6, 3)))
    # rows [1, 5, 5, 2], [4], [3, 2, 1] packed, then a PAD the loss ignores
    ids = np.array([1, 5, 5, 2, 4, 3, 2, 1, 0])
    weights = T.constant(rng.uniform(-1, 1, (9, 3)) * (ids != 0)[:, None])

    def f(ps):
        return oracle.sum_all(T.tanh(oracle.mul(L.embedding_lookup(table, ids), weights)))

    assert T.finite_diff_check(f, [table.table], eps=1e-5) < 1e-6


def test_frozen_embedding_gets_exactly_zero_gradient():
    table = _lookup_table([[0, 0], [1, 2]], frozen=True)
    out = L.embedding_lookup(table, [1, 1])
    assert not out.requires_grad
    loss = oracle.sum_all(oracle.mul(out, out))
    T.backward(loss)
    npt.assert_array_equal(T.grad_of(table.table), np.zeros((2, 2)))


def _scan_params(rng, inp, hidden, scale=0.5):
    return [T.Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)
            for shape in ((4 * hidden, inp), (4 * hidden, hidden), (4 * hidden,))]


def _one_layer(x, lengths, fwd, bwd):
    """A one-layer ``bilstm_encode`` without dropout: [h_f; h_b] per cell."""
    return L.bilstm_encode([(fwd, bwd)], x, lengths, 0.0, False, None)


def test_lstm_step_zero_params_give_zero_state():
    gates = np.zeros((2, 8))
    h, c = L.lstm_step(gates, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 8)))
    npt.assert_array_equal(h, np.zeros((2, 2)))
    npt.assert_array_equal(c, np.zeros((2, 2)))
    # the gates are activated in place: logistic(0) = 0.5, tanh(0) = 0
    npt.assert_array_equal(gates, [[0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5]] * 2)


def test_lstm_step_open_gates_add_candidate_to_cell():
    # U = 0 and huge input/forget/output pre-activations pin i = f = o = 1,
    # so c = c_prev + tanh(b_g) and h = tanh(c)
    b_g = 0.4
    gates = np.array([[50.0, 50.0, b_g, 50.0]])
    h, c = L.lstm_step(gates, np.array([[0.3]]), np.array([[0.25]]), np.zeros((1, 4)))
    npt.assert_allclose(c, [[0.25 + np.tanh(b_g)]], atol=1e-12)
    npt.assert_allclose(h, np.tanh(c), atol=1e-12)


def test_lstm_step_matches_finite_differences():
    # one row, two steps: the second cell update sees non-zero h and c, so
    # every term of lstm_step's derivative is exercised, in both directions
    rng = np.random.default_rng(5)
    hidden, inp = 3, 4
    params = _scan_params(rng, inp, hidden) + _scan_params(rng, inp, hidden)
    x = T.Tensor(rng.uniform(-1, 1, (2, inp)), requires_grad=True)

    def f(ps):
        return oracle.sum_all(_one_layer(ps[0], [2], ps[1:4], ps[4:]))

    assert T.finite_diff_check(f, [x] + params, eps=1e-5) < 1e-5


@pytest.mark.parametrize("reverse, lengths", [
    pytest.param(False, [3, 5, 1, 4], id="False"),
    pytest.param(True, [3, 5, 1, 4], id="True"),
    pytest.param(False, [1, 1, 1], id="ones-False"),
    pytest.param(True, [1, 1, 1], id="ones-True"),
])
def test_lstm_scan_matches_finite_differences(reverse, lengths):
    # one direction's scan, probed through its half of a one-layer
    # bilstm_encode; mixed lengths, unsorted: a length-1 row and a row at
    # the maximum; or rows of length 1, one step that reads only zero states
    rng = np.random.default_rng(6 + reverse)
    params = _scan_params(rng, 3, 2) + _scan_params(rng, 3, 2)
    x = T.Tensor(rng.uniform(-1, 1, (sum(lengths), 3)), requires_grad=True)
    probe = np.zeros((sum(lengths), 4))
    probe[:, 2 * reverse:2 * reverse + 2] = rng.uniform(-1, 1, (sum(lengths), 2))
    probe = T.constant(probe)

    def f(_):  # finite_diff_check moves the checked values in place
        return oracle.sum_all(oracle.mul(_one_layer(x, lengths, params[:3], params[3:]), probe))

    direction = params[3 * reverse:3 * reverse + 3]
    assert T.finite_diff_check(f, [x] + direction, eps=1e-5) < 1e-5


@pytest.mark.parametrize("lengths", [
    pytest.param(np.random.default_rng(3).integers(1, 6, 12), id="ties-and-ones"),
    pytest.param([4], id="one-row"),
    pytest.param([1, 1, 1], id="all-ones"),
    pytest.param([3, 3, 3], id="one-length"),
])
def test_packed_order_steps_read_each_rows_previous_cell(lengths):
    lengths = np.asarray(lengths)
    n, b = int(lengths.sum()), lengths.size
    srcs, steps = L._packed_order(lengths)
    # the steps tile [0, N) in order, each no larger than the one before
    assert [s for _, s, _ in steps] == [0] + [e for _, _, e in steps[:-1]]
    assert steps[-1][2] == n and len(steps) == lengths.max()
    sizes = [e - s for _, s, e in steps]
    assert sizes[0] == b and sizes == sorted(sizes, reverse=True)
    # step 0 reads the zero block at N, every later step the step before
    assert [p for p, _, _ in steps] == [n] + [s for _, s, _ in steps[:-1]]
    starts = np.cumsum(lengths) - lengths
    for src, reverse in zip(srcs, (False, True)):
        npt.assert_array_equal(np.sort(src), np.arange(n))
        before = {}  # brute force: each cell's predecessor in its row's walk, None first
        for start, k in zip(starts.tolist(), lengths.tolist()):
            walk = list(range(start, start + k))[::-1 if reverse else 1]
            before.update(zip(walk, [None] + walk[:-1]))
        for p, s, e in steps:
            for r in range(e - s):
                assert (None if p + r >= n else src[p + r]) == before[src[s + r]]


def test_lstm_scan_rows_are_independent_and_reverse_reads_own_end():
    rng = np.random.default_rng(7)
    fwd, bwd = _scan_params(rng, 2, 3), _scan_params(rng, 2, 3)
    lengths = [3, 5, 1]
    rows = [rng.uniform(-1, 1, (n, 2)) for n in lengths]
    x = T.Tensor(np.concatenate(rows))
    out = _one_layer(x, lengths, fwd, bwd).values
    alone = [_one_layer(T.Tensor(r), [len(r)], fwd, bwd).values for r in rows]
    npt.assert_allclose(out, np.concatenate(alone), rtol=0, atol=1e-15)
    # with one set of weights in both directions, reversing a row reverses
    # the reverse scan's output into the forward one's
    body = rows[0]
    there = _one_layer(T.Tensor(body), [3], fwd, fwd).values
    back = _one_layer(T.Tensor(body[::-1].copy()), [3], fwd, fwd).values
    npt.assert_allclose(there[:, :3], back[::-1, 3:], atol=1e-15)
    with pytest.raises(ValueError, match="sum"):
        _one_layer(x, [3, 5, 2], fwd, bwd)          # lengths sum to 10, not 9
    with pytest.raises(ValueError, match="do not fit"):
        _one_layer(T.Tensor(x.values[:, :1]), lengths, fwd, bwd)
    with pytest.raises(ValueError, match="packed"):
        _one_layer(T.Tensor(x.values[None]), lengths, fwd, bwd)


def test_lstm_init_shapes_and_forget_bias():
    config = TrainConfig(hidden_size=4, num_layers=1, sentence_dim=0, embedding_dim=5)
    emb = L.EmbeddingMatrix.from_array(np.zeros((2, 5)))
    p = rcnn.init_model(config, emb, np.random.default_rng(0)).named()
    assert p["bilstm0.fwd.w"].shape == (16, 5) and p["bilstm0.fwd.u"].shape == (16, 4)
    assert p["bilstm0.fwd.b"].shape == (16,)
    for tag in ("fwd", "bwd"):
        npt.assert_array_equal(p[f"bilstm0.{tag}.b"].values[4:8], np.ones(4))   # forget block
        npt.assert_array_equal(p[f"bilstm0.{tag}.b"].values[:4], np.zeros(4))
        npt.assert_array_equal(p[f"bilstm0.{tag}.b"].values[8:], np.zeros(8))
    assert np.abs(p["bilstm0.fwd.w"].values).max() <= 1 / np.sqrt(5)
    assert np.abs(p["bilstm0.bwd.u"].values).max() <= 1 / np.sqrt(4)
    assert np.abs(p["projection.w"].values).max() <= 1 / np.sqrt(2 * 4 + 5)
    npt.assert_array_equal(p["projection.b"].values, np.zeros(4))  # not an LSTM bias
    assert [n for n in p if n.startswith("bilstm")] == [
        "bilstm0.fwd.w", "bilstm0.fwd.u", "bilstm0.fwd.b",
        "bilstm0.bwd.w", "bilstm0.bwd.u", "bilstm0.bwd.b"]


def test_init_arrays_draws_in_table_order():
    shapes = {"a.w": (3, 4), "a.b": (3,), "l.w": (8, 3), "l.u": (8, 2), "l.b": (8,)}
    got = L.init_arrays(shapes, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    npt.assert_array_equal(got["a.w"], rng.uniform(-1 / np.sqrt(4), 1 / np.sqrt(4), (3, 4)))
    npt.assert_array_equal(got["l.w"], rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), (8, 3)))
    npt.assert_array_equal(got["l.u"], rng.uniform(-1 / np.sqrt(2), 1 / np.sqrt(2), (8, 2)))
    npt.assert_array_equal(got["a.b"], np.zeros(3))
    npt.assert_array_equal(got["l.b"], [0, 0, 1, 1, 0, 0, 0, 0])  # beside l.u: an LSTM bias
    assert list(got) == list(shapes)


def test_bilstm_encode_shapes_and_padding():
    # packed rows sit next to each other with no padding, and neither row's
    # encoding reads the other's cells
    rng = np.random.default_rng(1)
    lay = _bilstm(rng, 5, 3, num_layers=2)
    cells = T.Tensor(rng.uniform(-1, 1, (11, 5)), requires_grad=True)
    out = L.bilstm_encode(lay, cells, [4, 7], dropout_rate=0.0,
                          training=False, rng=None)
    assert out.shape == (11, 6)
    first = L.bilstm_encode(lay, T.Tensor(cells.values[:4]), [4], 0.0, False, None)
    npt.assert_allclose(out.values[:4], first.values, rtol=0, atol=1e-15)
    assert np.abs(out.values).min() > 0

    single = L.bilstm_encode(lay, T.Tensor(rng.uniform(-1, 1, (1, 5))), [1],
                             0.0, False, None)
    assert single.shape == (1, 6)
    with pytest.raises(ValueError):
        L.bilstm_encode([], cells, [4, 7], 0.0, False, None)
    with pytest.raises(ValueError):
        L.bilstm_encode(lay, cells, [4, 9], 0.0, False, None)
    with pytest.raises(ValueError):
        L.bilstm_encode(lay, T.Tensor(rng.uniform(-1, 1, (2, 7, 5))), [4, 7], 0.0, False,
                        None)


def test_bilstm_encode_zero_params_zero_output():
    zeros = _fixed(np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
    lay = [(zeros, zeros)]
    cells = T.Tensor(np.random.default_rng(2).uniform(-1, 1, (6, 2)))
    out = L.bilstm_encode(lay, cells, [4, 2], 0.0, False, None)
    npt.assert_array_equal(out.values, np.zeros((6, 6)))


def test_bilstm_reversal_swaps_direction_halves():
    # single layer: encoding the reversed sequence flips position order and
    # swaps the forward/backward halves of each row
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        fwd, _ = _bilstm(rng, 4, 3, num_layers=1)[0]
        lay = [(fwd, fwd)]  # shared weights make the symmetry exact
        vals = rng.uniform(-1, 1, (6, 4))
        fwd = L.bilstm_encode(lay, T.Tensor(vals), [6], 0.0, False, None).values
        rev = L.bilstm_encode(lay, T.Tensor(vals[::-1].copy()), [6], 0.0, False,
                              None).values
        swapped = np.concatenate([rev[::-1, 3:], rev[::-1, :3]], axis=1)
        npt.assert_allclose(fwd, swapped, atol=1e-12)


def test_bilstm_encode_matches_finite_differences():
    rng = np.random.default_rng(8)
    lay = _bilstm(rng, 3, 2, num_layers=2)
    cells = T.Tensor(rng.uniform(-1, 1, (8, 3)), requires_grad=True)
    params = [cells] + [t for layer in lay for direction in layer for t in direction]
    assert len(params) == 1 + 2 * 6

    def f(ps):
        enc = L.bilstm_encode(lay, ps[0], [4, 1, 3], 0.0, False, None)
        return oracle.sum_all(T.tanh(enc))

    assert T.finite_diff_check(f, params, eps=1e-5) < 1e-4


def test_conv_identity_filter_takes_max():
    bank = [(1, *_fixed([[1.0]], [0.0]))]
    cells = T.Tensor(np.array([[1.0], [2.0], [3.0], [1.0]]))
    # each row pools its own cells only: the 1-cell row never sees the 3
    npt.assert_array_equal(L.conv1d_over_time(bank, cells, [3, 1]).values, [[3.0], [1.0]])
    npt.assert_array_equal(L.conv1d_over_time(bank, cells, [1, 3]).values, [[1.0], [3.0]])


def test_conv_short_sequence_zero_pads():
    bank = [(2, *_fixed([[1.0, 1.0]], [0.5]))]
    # single window is [2, pad 0]: relu(2 + 0 + 0.5) = 2.5, whatever follows
    npt.assert_array_equal(L.conv1d_over_time(bank, T.Tensor([[2.0]]), [1]).values,
                           [[2.5]])
    # a short row first, in the middle and last: its window pads with zero,
    # never with the next row's first cell
    cells = T.Tensor(np.array([[2.0], [1.0], [1.0], [1.0], [3.0], [9.0], [9.0], [4.0]]))
    npt.assert_array_equal(L.conv1d_over_time(bank, cells, [1, 3, 1, 2, 1]).values,
                           [[2.5], [2.5], [3.5], [18.5], [4.5]])


def test_conv_default_bank_is_900_dim():
    rng = np.random.default_rng(3)
    bank = _bank(rng, dim=100, filters_per_size=300)
    assert [(k, w.shape[1]) for k, w, _ in bank] == [(1, 100), (2, 200), (3, 300)]
    n_params = sum(w.size + b.size for _, w, b in bank)
    assert n_params == sum(300 * (k * 100 + 1) for k in (1, 2, 3))
    cells = T.Tensor(rng.uniform(-1, 1, (7, 100)))
    assert L.conv1d_over_time(bank, cells, [5, 2]).shape == (2, 900)
    with pytest.raises(ValueError):
        L.conv1d_over_time(bank, T.Tensor(rng.uniform(-1, 1, (5, 99))), [5])
    with pytest.raises(ValueError):
        L.conv1d_over_time(bank, cells, [5, 1])


def test_conv_bank_rejects_cells_of_another_dim_even_when_it_divides():
    bank = _bank(np.random.default_rng(3), dim=100, filters_per_size=4)
    cells = T.Tensor(np.ones((6, 50)))  # 100 = 2 x 50: no width can absorb it
    with pytest.raises(ValueError, match=r"cells shape \(6, 50\) does not match bank dim 100"):
        L.conv1d_over_time(bank, cells, [3, 3])


def test_conv_width_one_reads_the_cells_without_a_window_gather():
    rng = np.random.default_rng(5)
    cells = T.Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
    bank = _bank(rng, dim=3, filters_per_size=2)
    out = L.conv1d_over_time(bank, cells, [4, 2])
    products = [n for n in graphs.nodes(out) if n.op == "linear_rows"]
    assert len(products) == len(bank)
    for k, w, _ in bank:
        (product,) = [p for p in products if p.parents[1] is w]
        windows = product.parents[0]
        assert windows is cells if k == 1 else windows.op == "windows"


def test_conv_rows_match_each_row_alone():
    rng = np.random.default_rng(4)
    bank = _bank(rng, dim=3, filters_per_size=2)
    lengths = [4, 1, 2, 5]
    rows = [rng.uniform(-1, 1, (n, 3)) for n in lengths]
    together = L.conv1d_over_time(bank, T.Tensor(np.concatenate(rows)), lengths).values
    alone = [L.conv1d_over_time(bank, T.Tensor(r), [len(r)]).values for r in rows]
    npt.assert_allclose(together, np.concatenate(alone), rtol=0, atol=1e-12)


def test_conv_matches_finite_differences():
    rng = np.random.default_rng(9)
    bank = _bank(rng, dim=3, filters_per_size=2)
    cells = T.Tensor(rng.uniform(-1, 1, (8, 3)), requires_grad=True)
    params = [cells] + [t for _, w, b in bank for t in (w, b)]

    def f(ps):
        return oracle.sum_all(T.tanh(L.conv1d_over_time(bank, ps[0], [5, 1, 2])))

    assert T.finite_diff_check(f, params, eps=1e-5) < 1e-4


def test_dropout_identity_cases():
    x = T.Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert L.dropout(x, 0.0, True, rng) is x
    assert L.dropout(x, 0.7, False, rng) is x
    with pytest.raises(ValueError):
        L.dropout(x, 1.0, True, rng)


def test_dropout_mean_preserved():
    rng = np.random.default_rng(11)
    x = T.Tensor(np.ones(100_000))
    out = L.dropout(x, 0.5, True, rng).values
    zeros = (out == 0).sum()
    assert 0 < zeros < x.size
    # survivors are scaled to 2.0, so the mean estimates 1.0 with sd 1/sqrt(n)
    assert abs(out.mean() - 1.0) < 3.0 / np.sqrt(x.size)


def test_dropout_reproducible_and_differentiable():
    x_vals = np.random.default_rng(1).uniform(-1, 1, (4, 5))
    m1 = L.dropout(T.Tensor(x_vals), 0.5, True, np.random.default_rng(42)).values
    m2 = L.dropout(T.Tensor(x_vals), 0.5, True, np.random.default_rng(42)).values
    npt.assert_array_equal(m1, m2)

    x = T.Tensor(x_vals, requires_grad=True)
    out = L.dropout(x, 0.5, True, np.random.default_rng(42))
    T.backward(oracle.sum_all(out))
    mask = m1 / x_vals  # recover the applied mask (0 or 2)
    npt.assert_allclose(x.grad, mask)


def test_linear_identity_and_gradient():
    w = T.Tensor(np.eye(3), requires_grad=True)
    b = T.Tensor(np.zeros(3), requires_grad=True)
    x = T.Tensor([[1.0, -2.0, 0.5]], requires_grad=True)
    npt.assert_array_equal(T.linear_rows(x, w, b).values, x.values)

    err = T.finite_diff_check(lambda ps: oracle.sum_all(oracle.sigmoid(T.linear_rows(*ps))),
                              [x, w, b], eps=1e-5)
    assert err < 1e-6
    with pytest.raises(ValueError):
        T.linear_rows(T.Tensor([[1.0, 2.0]]), w, b)
