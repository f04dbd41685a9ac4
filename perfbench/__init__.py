"""Study-level benchmark of the geoblocking measurement pipeline."""
