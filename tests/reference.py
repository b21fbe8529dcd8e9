"""Reference forms of the dynamics verdicts, kept as test oracles.

`attracts` decides attraction by a level search per covering index. The
proximity form below decides it the other way the theory states it: the
one-sided proximity of the images of Z to Y converges to zero along every
divergent net. It computes every image point by point with `Action.apply`,
so it shares neither the image cache nor the orbit masks with the level
search.
"""

from coverdyn.proximity import converges_to_zero, semi_prox


def divergent_sequence(F):
    """A canonical divergent sequence: the k-th block is drawn from level k."""
    return [(k, el) for k in F.levels() for el in F.sampler(k)]


def prox_form_attracts(ymask, zmask, F, action, family):
    """Y attracts Z when semi_prox(Y, s Z) converges to zero along every
    divergent sequence of F, that is, every sequence whose k-th term is
    drawn from level k.

    Along the canonical sequence alone the forms differ at the truncation
    edge: late terms of the last block can satisfy "eventually" while its
    first terms still leave the star. So for each covering index the oracle
    walks the worst sequence, whose k-th term leaves the star of Y at that
    index whenever some term of level k does.
    """
    space = action.space
    zs = space.point_list(zmask)
    blocks = [[] for _ in F.levels()]
    for k, el in divergent_sequence(F):
        image = space.mask_of(action.apply(el, z) for z in zs)
        blocks[k].append(semi_prox(ymask, image, family))
    return all(
        converges_to_zero([
            next((v for v in block if not v.contains_index(i)), block[0])
            for block in blocks
        ])
        for i in range(family.size)
    )
