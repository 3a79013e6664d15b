//===- support/Flags.cpp - One flag table per tool ------------------------===//

#include "support/Flags.h"

#include <cstdio>

namespace velo {

Flag boolFlag(std::string Spelling, bool &Target, std::string Help,
              bool Value) {
  return {std::move(Spelling),
          [&Target, Value](const std::string &) {
            Target = Value;
            return true;
          },
          std::move(Help)};
}

Flag stringFlag(std::string Spelling, std::string &Target, std::string Help) {
  return {std::move(Spelling),
          [&Target](const std::string &V) {
            Target = V;
            return true;
          },
          std::move(Help)};
}

void addFlags(std::vector<Flag> &Rows, std::vector<Flag> Group) {
  for (Flag &F : Group)
    Rows.push_back(std::move(F));
}

/// The row Arg spells, with its value; null when no row does.
static const Flag *match(const std::vector<Flag> &Rows, const std::string &Arg,
                         std::string &Value) {
  for (const Flag &F : Rows) {
    size_t Eq = F.Spelling.find('=');
    if (Eq == std::string::npos) {
      if (Arg == F.Spelling) {
        Value.clear();
        return &F;
      }
    } else if (Arg.compare(0, Eq + 1, F.Spelling, 0, Eq + 1) == 0) {
      Value = Arg.substr(Eq + 1);
      return &F;
    }
  }
  return nullptr;
}

int FlagTable::parse(int Argc, char **Argv,
                     std::vector<std::string> &Operands) const {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    }
    if (Arg.empty() || Arg[0] != '-') {
      if (Operands.size() == MaxOperands)
        return usageError("unexpected operand '" + Arg + "'");
      Operands.push_back(Arg);
      continue;
    }
    std::string Value;
    const Flag *F = match(Rows, Arg, Value);
    if (!F)
      return usageError("unknown option '" + Arg + "'");
    if (!F->Handle(Value))
      return usageError("bad value in '" + Arg + "'");
  }
  if (Operands.size() < MinOperands) {
    printUsage();
    return 2;
  }
  return -1;
}

void FlagTable::printUsage() const {
  // Help starts in column 26 and wraps at word boundaries before 80.
  const size_t Indent = 26, Width = 80;
  std::string Text = "usage: " + Synopsis + "\n";
  auto Row = [&](const std::string &Spelling, const std::string &Help) {
    std::string Line = "  " + Spelling;
    if (Line.size() >= Indent) {
      Text += Line + "\n";
      Line.clear();
    }
    Line.resize(Indent, ' ');
    for (size_t Pos = 0; Pos < Help.size();) {
      size_t End = std::min(Help.find(' ', Pos), Help.size());
      if (Line.size() > Indent && Line.size() + 1 + (End - Pos) > Width) {
        Text += Line + "\n";
        Line.assign(Indent, ' ');
      } else if (Line.size() > Indent) {
        Line += ' ';
      }
      Line.append(Help, Pos, End - Pos);
      Pos = End + 1;
    }
    Text += Line + "\n";
  };
  for (const Flag &F : Rows)
    Row(F.Spelling, F.Help);
  Row("--help, -h", "print this text");
  Text += Footer;
  std::fputs(Text.c_str(), stderr);
}

int FlagTable::usageError(const std::string &Msg) const {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  printUsage();
  return 2;
}

} // namespace velo
