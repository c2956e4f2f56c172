/**
 * @file
 * Baked-in sanitizer runtime defaults for the DUET_SANITIZE build
 * presets. The sanitizer runtimes look these hooks up in the main
 * executable, so this TU is compiled directly into every binary
 * (duet_sim, the gtest suites, examples, benches) rather than into
 * libduet — an archive member with no referenced symbols would never be
 * pulled in, and the hooks would silently vanish.
 *
 * halt_on_error: a report is a test failure, never a warning that
 * scrolls by. detect_leaks stays on for the parent; forked sweep/serve
 * workers _exit() and therefore never run the leak checker, which keeps
 * the resident-worker ResidentPool ASan-compatible without
 * suppressions.
 * The ctest layer exports the same values via ENVIRONMENT properties,
 * so `ASAN_OPTIONS=... ctest` overrides still win.
 */

#ifdef DUET_SANITIZE_BUILD

extern "C" {

const char *
__asan_default_options()
{
    return "halt_on_error=1:detect_leaks=1:abort_on_error=0:"
           "detect_stack_use_after_return=1";
}

const char *
__ubsan_default_options()
{
    return "halt_on_error=1:print_stacktrace=1";
}

const char *
__lsan_default_options()
{
    return "print_suppressions=0";
}

const char *
__tsan_default_options()
{
    return "halt_on_error=1:second_deadlock_stack=1";
}

} // extern "C"

#else

// Non-sanitizer builds compile this TU to nothing; the symbol below
// only keeps -Wempty-translation-unit-style tooling quiet.
namespace duet_detail
{
[[maybe_unused]] const int kNoSanitizerDefaults = 0;
}

#endif // DUET_SANITIZE_BUILD
