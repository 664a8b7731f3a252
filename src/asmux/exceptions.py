"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument or configuration value lies outside its allowed domain."""


class TruncationError(RuntimeError):
    """A finite table or walk cannot hold what the input needs.

    Raised by the per-unit search grid's series cutoff (an upper search
    bound whose source tail cannot be cut within 400 pairs, or a strategy
    that accepts no count within them), by the
    count-table budget of the output distribution, by its accounting
    check (a pump so bright that the distribution leaves the float
    range), and by the Monte Carlo sampler's bound on the pair-number
    groups one unit may walk.
    """
