"""Branch-and-bound searches over valued resource subsets.

Two searches: ``minimal_subsets_at_least`` enumerates the minimal
configurations (CLP columns, alpha-hyperedges and the one pricing scan of
``lp_core.verify_dual``), and ``max_value_below`` gives the block bound m.
Values and thresholds are integers: callers pass an instance's integer
value table (``Instance.int_values``) and a threshold scaled by the same
``Instance.scale`` and rounded up, which decides ``sum >= threshold`` and
``sum < threshold`` exactly for integer sums.
"""

from __future__ import annotations


class SubsetCapError(RuntimeError):
    """Raised when a subset search would exceed its configured caps."""


def _descending(items: dict[str, int]) -> tuple[list[str], list[int], list[int]]:
    """Ids by descending value (ties by id), their values, and suffix sums."""
    order = sorted(items, key=lambda rid: (-items[rid], rid))
    values = [items[rid] for rid in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    return order, values, suffix


def minimal_subsets_at_least(
    items: dict[str, int],
    threshold: int,
    *,
    max_items: int,
    max_results: int,
) -> list[frozenset[str]]:
    """All inclusion-minimal subsets of ``items`` with total value >= threshold.

    Items are scanned in descending value order; a branch is recorded and
    closed the first time its running sum crosses the threshold, which for
    positive values yields exactly the inclusion-minimal subsets, each once,
    in a deterministic order.
    """
    if len(items) > max_items:
        raise SubsetCapError(f"{len(items)} items exceeds cap {max_items}")
    if threshold <= 0:
        return [frozenset()]
    order, values, suffix = _descending(items)
    n = len(order)
    out: list[frozenset[str]] = []
    chosen: list[str] = []

    def dfs(i: int, total: int) -> None:
        if i == n or total + suffix[i] < threshold:
            return
        chosen.append(order[i])
        new_total = total + values[i]
        if new_total >= threshold:
            if len(out) >= max_results:
                raise SubsetCapError(f"more than {max_results} minimal subsets")
            out.append(frozenset(chosen))
        else:
            dfs(i + 1, new_total)
        chosen.pop()
        dfs(i + 1, total)

    dfs(0, 0)
    return out


def max_value_below(items: dict[str, int], threshold: int) -> int:
    """Largest subset value strictly below ``threshold`` (0 for the empty set)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    order, values, suffix = _descending(items)
    n = len(order)
    best = 0

    def dfs(i: int, total: int) -> None:
        nonlocal best
        take_all = total + suffix[i]
        if take_all < threshold:
            if take_all > best:
                best = take_all
            return
        if take_all <= best or i == n:
            return
        if total + values[i] < threshold:
            dfs(i + 1, total + values[i])
        dfs(i + 1, total)

    dfs(0, 0)
    return best

