"""RA004 clean: valid spec literals in every position the rule scans."""

CASES = (
    "rcm+fixed:8+cluster",
    "rcm+hierarchical:max_th=8+cluster",
    "original+none+rowwise",
    "rabbit+tiled:tile_cols=128",
    "rcm+fixed:8+rowwise@sharded:workers=2,inner=scipy",
    "rcm+fixed:8+cluster@sharded:workers=2",
)


def parsed():
    from repro.pipeline import PipelineSpec

    return PipelineSpec.parse("rcm+fixed:8+rowwise@scipy")
