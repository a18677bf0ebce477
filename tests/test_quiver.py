from quivergrass.quiver import build_quiver, cartan_matrix, classify, kronecker_quiver, star_quiver


def test_cartan_cache_is_bounded_and_rebuilds_evicted_entries():
    bound = cartan_matrix.cache_info().maxsize
    assert bound is not None
    d4 = star_quiver(3)
    first = cartan_matrix(d4)
    for k in range(bound):
        cartan_matrix(build_quiver([f"bound{k}"], []))
    assert cartan_matrix.cache_info().currsize == bound
    rebuilt = cartan_matrix(d4)
    assert rebuilt is not first
    assert rebuilt == first
    assert rebuilt.kind == "finite"
    assert classify(d4).label == "D4"
    assert cartan_matrix(kronecker_quiver()).kind == "affine"
