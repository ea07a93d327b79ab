"""gmt-lab: rectifiability diagnostics for discrete weighted point measures.

Computable quantities of anisotropic geometric measure theory at desk scale:
ellipse densities and blowups, truncated singular integrals, exact
bounded-Lipschitz metrics via linear programming, distances to flat cones,
symmetry defects, and oscillation moduli of coefficient fields.

Each name is imported from the module that defines it, for instance
``from gmtlab.lipmetric import f_ball``; the package root re-exports
nothing, so ``import gmtlab`` loads no submodule.
"""
