#!/usr/bin/env python3
"""Two reductions: replacing a torus element of infinite order by a finite one
without changing any equivalence verdict, and moving data between a base
system and its restriction-of-scalars product."""

from fractions import Fraction

from endatlas import (
    build_galois_model,
    build_root_system,
    equivalent,
    finite_order_reduction,
    make_datum,
    make_induced_model,
    shapiro_descend,
    shapiro_induce,
)
from endatlas.serialize import plan_to_dict, dumps
from endatlas.torus import TorusElement

F = Fraction

print("-- finite-order reduction --")
rs = build_root_system("A1")
galois = build_galois_model("trivial", rs)
s = TorusElement([F(1, 2)], [(F(1),)])  # torsion 1/2 plus one free generator
d = make_datum(rs, galois, s, {})
r1, r2, plan = finite_order_reduction(d, d)
print("original s:", s)
print("reduced t :", plan.t, f"(b={plan.b}, c={plan.c}, d={plan.d})")
print(dumps(plan_to_dict(plan)))

print("-- restriction of scalars --")
rs2 = build_root_system("A2")
base = build_galois_model("c3:inner", rs2)
from endatlas.galois import _s3

s3_names, s3_table, _ = _s3()
model = make_induced_model(base, s3_names, s3_table, [0, 1, 2])
print(f"base: A2 over Z/3; induced: {model.rs} over S3 with {model.degree} cosets")
x = make_datum(rs2, base, TorusElement([F(1, 3), F(1, 3)]), {})
y = shapiro_induce(x, model)
print("induced torus element:", y.s)
back = shapiro_descend(y, model)
print("descend(induce(x)) == x:", back == x)
print(
    "induce(descend(y)) equivalent to y:",
    equivalent(shapiro_induce(back, model), y) is not None,
)
