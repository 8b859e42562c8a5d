"""Ports of the four ``scipy.special`` kernels the package evaluates, bitwise their values.

``ndtri`` (normal quantile) and ``ndtr`` (normal CDF, over ``erf`` and
``erfc``) are Cephes (S. L. Moshier, 1989) operation for operation: the
same coefficient tables, ``polevl``/``p1evl`` Horner order and branch
points.  ``expit`` is 1 / (1 + exp(-x)) and ``logit`` the two-branch
form that ``scipy.special`` evaluates.

Bitwise agreement needs the C library's ``exp``, ``log`` and ``log1p``,
which ``math`` calls.  numpy's own SIMD ``exp`` rounds differently in the
last bit on some inputs; its float64 loop calls the C library's ``exp``
when input and output overlap other than exactly (numpy 2.4), so
``_libm_exp`` reads its input from one element ahead of its output in a
shared buffer.  ``tests/test_special.py`` compares every port with scipy,
so a numpy that vectorised that case too would fail it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "logit", "ndtr", "ndtri"]

# ndtri: rational approximations in y - 1/2 on the centre, where
# exp(-2) < y < 1 - exp(-2), and in 1/x with x = sqrt(-2 log y) on the
# tails, one table pair for x < 8 and one beyond
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

# ndtr: erf on |x| < 1 is x T(x^2) / U(x^2); erfc on x >= 1 is
# exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8, and 0
# once x^2 passes MAXLOG = log(2^1024)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef: tuple):
    """Cephes ``polevl``: the polynomial with coefficients ``coef``, highest first, by Horner.

    ``x`` is a float or an array; an array's steps run in place.
    """
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef: tuple):
    """Cephes ``p1evl``: as ``_polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of a float64 array, elementwise the C library's ``exp``; overflow gives inf silently."""
    buf = np.zeros(x.size + 2)  # one spare element, so that even one value's ranges overlap
    buf[1:-1] = x.ravel()
    with np.errstate(over="ignore"):
        np.exp(buf[1:], out=buf[:-1])
    return buf[: x.size].reshape(x.shape)


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)) of an array, bitwise ``scipy.special.expit``."""
    x = np.asarray(x, dtype=float)
    e = _libm_exp(-x)
    e += 1.0
    return np.divide(1.0, e, out=e)


def logit(x: float) -> float:
    """log(x / (1 - x)) at a scalar x in (0, 1), bitwise ``scipy.special.logit``.

    Outside [0.3, 0.65] the plain ratio; inside, log1p(s) - log1p(-s) with
    s = 2 (x - 1/2), which keeps its precision near 1/2.
    """
    if x < 0.3 or x > 0.65:
        return math.log(x / (1.0 - x))
    s = 2.0 * (x - 0.5)
    return math.log1p(s) - math.log1p(-s)


def ndtri(y: float) -> float:
    """The standard normal quantile at a scalar y in [0, 1], bitwise ``scipy.special.ndtri``.

    -inf at 0 and inf at 1.
    """
    y = float(y)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _p1evl(z, q)
    return x if upper else -x


def _erf(x):
    """Cephes ``erf`` at |x| < 1, scalar or array."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def ndtr(a):
    """The standard normal CDF, bitwise ``scipy.special.ndtr``.

    A float gives a float, by ``math``; anything else an array, each
    branch evaluated on its own elements only.
    """
    if isinstance(a, float):
        x = a * _SQRT1_2
        z = abs(x)
        if z < 1.0:
            return 0.5 + 0.5 * _erf(x)
        if not z * z <= _MAXLOG:  # erfc underflows; also nan
            return math.nan if z != z else 1.0 if x > 0 else 0.0
        p, q = (_P, _Q) if z < 8.0 else (_R, _S)
        y = 0.5 * (math.exp(-(z * z)) * _polevl(z, p) / _p1evl(z, q))
        return 1.0 - y if x > 0 else y
    x = np.asarray(a, dtype=float) * _SQRT1_2
    flat = x.ravel()
    z = np.abs(flat)
    y = (flat > 0).astype(float)  # past MAXLOG, where erfc underflows to 0
    np.copyto(y, flat, where=np.isnan(flat))
    near = z < 1.0
    centre = np.flatnonzero(near)
    cdf = _erf(flat[centre])
    cdf *= 0.5
    cdf += 0.5
    y[centre] = cdf
    with np.errstate(over="ignore"):
        far = (z >= 8.0) & (z * z <= _MAXLOG)
    for part, p, q in ((~near & (z < 8.0), _P, _Q), (far, _R, _S)):
        tail = np.flatnonzero(part)
        v = z[tail]
        half = 0.5 * (_libm_exp(-(v * v)) * _polevl(v, p) / _p1evl(v, q))
        y[tail] = np.where(flat[tail] > 0, 1.0 - half, half)
    return y.reshape(x.shape)
