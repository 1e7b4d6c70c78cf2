from hypothesis import settings

# every property test replays the same examples and has no time limit
settings.register_profile("geonav", derandomize=True, deadline=None)
settings.load_profile("geonav")
