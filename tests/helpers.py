"""Matrix helpers the tests build from the public ``RatingsMatrix`` API."""

from groupexplain import RatingsMatrix


def co_rated(matrix: RatingsMatrix, a: str, b: str) -> tuple[str, ...]:
    """Items rated by both users, ascending."""
    row_a, row_b = matrix.items_rated_by(a), matrix.items_rated_by(b)
    return tuple(sorted(row_a.keys() & row_b.keys()))


def without_item(matrix: RatingsMatrix, item: str) -> RatingsMatrix:
    """A new matrix with every rating of *item* removed."""
    return RatingsMatrix(
        (user, rated, value)
        for user in matrix.users()
        for rated, value in matrix.items_rated_by(user).items()
        if rated != item
    )
