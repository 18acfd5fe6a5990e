"""Vectorised sparse kernels operating on raw NumPy arrays.

Everything in this package works on *canonical sorted COO* data:

* matrices: ``(rows, cols, values)`` lexsorted by ``(row, col)``, unique
* vectors:  ``(indices, values)`` sorted, unique

Canonical row-major COO doubles as CSR (``indices``/``data`` are exactly the
CSR arrays; ``indptr`` is derived with one ``bincount``+``cumsum``), which is
why the two representations never need to be reconciled.

No kernel here allocates Python objects per entry; hot paths are lexsort
merges, ``np.repeat`` expansions and ``ufunc.reduceat`` segment reductions,
per the hpc-parallel guidance (vectorise; mind memory traffic; measure).

Every kernel runs serially in the calling process.  The paper's 8-thread
parallelism lives one level up, at comment granularity
(:func:`repro.queries.q2.score_comments` over a :mod:`repro.parallel`
executor).
"""
