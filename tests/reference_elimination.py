"""The right-looking rotation PLUQ, kept as the reference that the
recursive `pluq_rpm` is checked against field by field."""

import numpy as np

from rankcert.elimination import PluqFactorization
from rankcert.matrix import DenseMatrix, Permutation


def right_looking_pluq_rpm(a: DenseMatrix) -> PluqFactorization:
    """PLUQ with the lexicographically first nonzero of the trailing block
    as each pivot, brought to the front by rotating rows and columns, and
    one rank-1 update of the whole trailing block per pivot."""
    p = a.field.p
    w = a.array.copy()
    m, n = w.shape
    rp = list(range(m))
    cp = list(range(n))
    k = 0
    while k < m and k < n:
        piv = None
        for i in range(k, m):
            nz = np.nonzero(w[i, k:])[0]
            if nz.size:
                piv = (i, k + int(nz[0]))
                break
        if piv is None:
            break
        i, j = piv
        if i != k:
            w[k : i + 1] = np.roll(w[k : i + 1], 1, axis=0)
            rp[k : i + 1] = [rp[i]] + rp[k:i]
        if j != k:
            w[:, k : j + 1] = np.roll(w[:, k : j + 1], 1, axis=1)
            cp[k : j + 1] = [cp[j]] + cp[k:j]
        inv = pow(int(w[k, k]), -1, p)
        if k + 1 < m:
            mult = (w[k + 1 :, k] * inv) % p
            if k + 1 < n:
                w[k + 1 :, k + 1 :] = (
                    w[k + 1 :, k + 1 :] - np.outer(mult, w[k, k + 1 :])
                ) % p
            w[k + 1 :, k] = mult
        k += 1
    r = k

    lower = np.tril(w[:, :r], -1)
    for i in range(r):
        lower[i, i] = 1
    upper = np.triu(w[:r, :])

    return PluqFactorization(
        field=a.field,
        m=m,
        n=n,
        r=r,
        row_perm=Permutation(tuple(rp)),
        lower=DenseMatrix(a.field, lower),
        upper=DenseMatrix(a.field, upper),
        col_perm=Permutation(tuple(cp)).inverse(),
    )
