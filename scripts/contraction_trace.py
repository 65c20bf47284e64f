# Print the conjugation trace of one rotation family, aimed vs fixed.
# The aimed selector converges to a unipotent limit; a fixed corner
# rotation walks away from everything at a constant rate.

import sys

from buildinglab.building import GroupContext, mat_agreement
from buildinglab.dynamics import classify
from buildinglab import chabauty as ch

t_unit = int(sys.argv[1]) if len(sys.argv) > 1 else 7
steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10

ctx = GroupContext(2, 5)
spec = ch.so2_subgroup(ctx)
certs = [classify(ctx.diag((-k, k))) for k in range(1, steps + 1)]
t = ctx.s(t_unit)

aimed = ch.conjugate_trace(spec, certs, ch.aimed_selector(spec, certs, t))
print("aimed at t = %d: converged %s" % (t_unit, aimed.converged))
print("  successive agreements:", aimed.agreements)
if aimed.limit is not None:
    u = ctx.mat([[ctx.one, t], [ctx.zero, ctx.one]])
    print("  limit vs u(t): agreement", mat_agreement(aimed.limit, u))

corner = ctx.mat([[0, 1], [-1, 0]])
fixed = ch.conjugate_trace(spec, certs, lambda k: corner)
print("fixed corner rotation: converged %s" % fixed.converged)
print("  successive agreements:", fixed.agreements)
