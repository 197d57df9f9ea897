from hypothesis import Phase, settings

# the explain phase only annotates a failure already found and shrunk, and
# takes most of a failing property's run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("deterministic")
