"""The induced-module double complex at rank one.

The row maps act by right multiplication with the lowering singular
vectors, the column maps by their mirror images under the algebra
involution. The script checks that the two families anticommute (the
classical base case (F E - E F) applied to the generator vanishes) and that
rows and columns are exact on certified weight windows.
"""
from __future__ import annotations

from qbgg.bgg import DoubleComplex
from qbgg.cartan import ParabolicData, RootSystem
from qbgg.verma import StandardMapFamily
from qbgg.weyl import BruhatGraph

dc = DoubleComplex(StandardMapFamily(BruhatGraph(ParabolicData(RootSystem("A1"), set()))))

anti = dc.verify_anticommute(k1cap=2, k2cap=2)
print("anticommutation on the (2,2) box:", anti["ok"])
for rec in anti["pairs"]:
    print("  row %s col %s: generator %s, %d box multiple(s) %s"
          % ("->".join(rec["row_arrow"]), "->".join(rec["col_arrow"]),
             rec["generator_zero"], rec["box_multiples_tested"],
             rec["box_multiples_zero"]))

rows = dc.verify_rows(k2cap=1, k1lim=2)
cols = dc.verify_columns(k1cap=1, k2lim=2)
print("rows exact on verified windows:   ", rows["ok"])
print("columns exact on verified windows:", cols["ok"])
for line in rows["lines"]:
    for rec in line["slices"]:
        print("  row at %s, weight %s: dims %s ranks %s"
              % (line["fixed_col"], rec["omega"], rec["dims"], rec["ranks"]))
