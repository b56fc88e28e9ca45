"""Representation instances for the certify workload.

They are built the way `scripts/separation_demo.py` builds them: gl2
on its defining module with the Z2 action that negates the
antidiagonal, and a 2-dim abelian centre whose eigenlines the group
swaps.  They are copied here so the benchmark's inputs stay fixed
whatever the demo script becomes.
"""
from fractions import Fraction

from codimlab.alternating import RepresentationInstance
from codimlab.fixtures import abelian, diagonal_action, gl2, permutation_action
from codimlab.linalg import MatrixExact
from codimlab.scalar import RATIONALS as F
from codimlab.symmetry import FiniteGroup


def _mat(rows):
    return MatrixExact(F, [[F.from_rational(Fraction(x)) for x in r]
                           for r in rows])


def gl2_defining():
    alg = gl2()
    group = FiniteGroup.cyclic(2, gen_name="psi")
    one, minus = F.one(), F.from_rational(-1)
    action = diagonal_action(alg, group, [[one] * 4,
                                          [one, minus, minus, one]])
    units = [_mat([[1, 0], [0, 0]]), _mat([[0, 1], [0, 0]]),
             _mat([[0, 0], [1, 0]]), _mat([[0, 0], [0, 1]])]
    rho = [MatrixExact.identity(F, 2), _mat([[1, 0], [0, -1]])]
    return RepresentationInstance(alg, action, units, rho,
                                  faithful=True,
                                  irreducible_with_group=True).validate()


def swap_centre():
    alg = abelian(2)
    group = FiniteGroup.cyclic(2, gen_name="s")
    action = permutation_action(alg, group, [(0, 1), (1, 0)])
    return RepresentationInstance(
        alg, action,
        [_mat([[1, 0], [0, 0]]), _mat([[0, 0], [0, 1]])],
        [MatrixExact.identity(F, 2), _mat([[0, 1], [1, 0]])],
        faithful=True, irreducible_with_group=True).validate()
