import numpy as np

from sylvester.straightline import Trace


def test_replay_is_bitwise_and_shares_operations():
    def f(x, y):
        return (0 + x * 1 - 0) / 1 * (y + x) * (x + y)

    trace = Trace()
    x, y = trace.input(full=True), trace.input(full=True)
    run = trace.compile([x, y], f(x, y))
    # 0 + x, x + y (met twice, once as y + x) and two products: * 1, - 0
    # and / 1 are not steps, but 0 + x is, since it turns -0.0 into 0.0
    # (at a = b = -0.0 the result would change sign without it).
    assert len(trace.steps) == 4
    a = np.array([-0.0, 0.0, -1.5, 3.0])
    b = np.array([-0.0, -0.0, 2.0, -3.0])
    copies = a.copy(), b.copy()
    assert run([a], [b]).tobytes() == f(a, b).tobytes()
    assert run([a, b]).tobytes() == f(a, b).tobytes()
    assert a.tobytes() == copies[0].tobytes()
    assert b.tobytes() == copies[1].tobytes()
