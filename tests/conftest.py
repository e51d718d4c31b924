from hypothesis import settings

# Property tests run without a per-example wall-clock deadline: timings on a
# shared host drift by tens of percent, so a deadline fails examples at random
# without saying anything about the code.
settings.register_profile("loewner", deadline=None)
settings.load_profile("loewner")
