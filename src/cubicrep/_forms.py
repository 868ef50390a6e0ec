"""Index conventions for ternary forms, shared by the geometry modules.

A cubic is a 10-vector over CUBIC_INDICES ("011" is the XY^2 coefficient);
a quadratic is a 6-vector over QUAD_INDICES.
"""

CUBIC_INDICES = ("000", "001", "002", "011", "012", "022", "111", "112", "122", "222")
QUAD_INDICES = ("00", "01", "02", "11", "12", "22")

#: the variables of each monomial as ints, (0, 1, 1) for "011"
CUBIC_VARS = tuple(tuple(map(int, idx)) for idx in CUBIC_INDICES)
QUAD_VARS = tuple(tuple(map(int, idx)) for idx in QUAD_INDICES)

CUBIC_EXPONENTS = tuple(
    tuple(idx.count(str(v)) for v in range(3)) for idx in CUBIC_INDICES
)
QUAD_EXPONENTS = tuple(
    tuple(idx.count(str(v)) for v in range(3)) for idx in QUAD_INDICES
)

CUBIC_POS = {idx: i for i, idx in enumerate(CUBIC_INDICES)}
QUAD_POS = {idx: i for i, idx in enumerate(QUAD_INDICES)}


#: QUAD_POS2[i][j] is the position of X_i X_j and CUBIC_POS3[i][j][k] that
#: of X_i X_j X_k, for indices in any order
QUAD_POS2 = tuple(
    tuple(QUAD_POS["".join(sorted(f"{i}{j}"))] for j in range(3)) for i in range(3)
)
CUBIC_POS3 = tuple(
    tuple(tuple(CUBIC_POS["".join(sorted(f"{i}{j}{k}"))] for k in range(3))
          for j in range(3))
    for i in range(3)
)


#: derivative plan: per variable, the (cubic position, quad position, multiplier) terms
DERIVATIVE_PLAN = tuple(
    tuple(
        (cpos, QUAD_POS[idx.replace(str(var), "", 1)], exps[var])
        for cpos, (idx, exps) in enumerate(zip(CUBIC_INDICES, CUBIC_EXPONENTS))
        if exps[var]
    )
    for var in range(3)
)
