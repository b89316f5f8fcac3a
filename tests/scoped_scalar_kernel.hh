/**
 * @file
 * Test helpers: force an environment flag for one scope.
 *
 * The variables may be set externally (the CI sanitize job runs
 * whole test binaries under QPAD_SCALAR_KERNEL=1); clobbering one
 * would silently change behaviour for the remaining tests, so the
 * destructor restores the exact prior value.
 */

#ifndef QPAD_TESTS_SCOPED_SCALAR_KERNEL_HH
#define QPAD_TESTS_SCOPED_SCALAR_KERNEL_HH

#include <cstdlib>
#include <string>

namespace qpad::test
{

/** Sets `name=value` for its lifetime, then restores the old state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *prev = std::getenv(name);
        had_prev_ = prev != nullptr;
        if (had_prev_)
            prev_ = prev;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_prev_)
            setenv(name_.c_str(), prev_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    bool had_prev_ = false;
    std::string prev_;
};

/** Forces the scalar collision kernel for one scope. */
class ScopedScalarKernel : public ScopedEnv
{
  public:
    ScopedScalarKernel() : ScopedEnv("QPAD_SCALAR_KERNEL", "1") {}
};

} // namespace qpad::test

#endif // QPAD_TESTS_SCOPED_SCALAR_KERNEL_HH
