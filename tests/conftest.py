from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database; a test's own settings change only its max_examples.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
