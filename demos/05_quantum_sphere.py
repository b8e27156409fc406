"""The rank-one quantum sphere and its two-sided calculus.

The coordinate relations are not postulated: they are recovered as the
kernel of the dual pairing with the two-dimensional module. The script then
exhibits the sphere subalgebra, its unique quadratic relation, the two
differentials, and the volume form.
"""
from __future__ import annotations

from qbgg import qsphere as qs

rel = qs.verify_relations()
print("degree-2 relation space dimension:", rel["degree2_kernel_dim"])
print("rewrites certified against the pairing:", rel["rewrites_match_pairing"])
print("relations: ba = q ab, ca = q ac, cb = bc, db = q bd, dc = q cd,")
print("           da = ad + (q - q^-1) bc,  ad = 1 + q^-1 bc")

sph = qs.sphere_relation()
print("sphere relation (unique up to scale):", sph["relation"])

dims = qs.component_fiber_dims()
print("form component fibers:", dims["components"],
      "-> totals by degree", dims["total_by_degree"])

print("Leibniz rule:", qs.verify_leibniz()["ok"])
print("d squared zero:", qs.verify_d_squared()["ok"])
vol = qs.verify_volume_form()
print("volume form central and generating:", vol["ok"],
      "(window dims %d = %d)" % (vol["generated_dim"],
                                 vol["subalgebra_window_dim"]))
