"""Parent labels shared by the test modules (a helper, not a test file)."""
from rootsplit.catalog import simple_labels_up_to
from rootsplit.pipeline import _product_labels


def parents_up_to(max_rank):
    """Every simple and product g of rank <= max_rank, as labels, in the
    order of `classify --max-rank max_rank --include-products`."""
    return [str(l) for l in simple_labels_up_to(max_rank)] + [
        "+".join(str(l) for l in combo) for combo in _product_labels(max_rank, None)
    ]


#: every simple and product g of rank <= 4
RANK_4_PARENTS = parents_up_to(4)
