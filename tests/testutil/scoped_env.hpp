#pragma once

// Sets (or, for nullptr, unsets) one environment variable for the lifetime
// of the guard and unsets it afterwards. Tests that probe an environment
// switch construct their object inside the guard's scope; ctest runs every
// test case in its own process, so nothing leaks into other cases.

#include <cstdlib>
#include <string>

namespace vhadoop::testutil {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) unsetenv(name);
    else setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
};

}  // namespace vhadoop::testutil
